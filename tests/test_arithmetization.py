"""The prime-exponent encoding: bijectivity, pullbacks, ceilings."""

import bisect
import itertools
import random
import time
import tracemalloc
from array import array
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from young_defined import arithmetization as A
from young_defined import partitions as P
from young_defined.partitions import (EMPTY, Partition, PartitionError,
                                      ResourceLimit, enumerate_level,
                                      enumerate_universe, from_parts,
                                      parse_partition)

p = parse_partition
partitions = st.lists(st.integers(1, 9), max_size=9).map(from_parts)


def test_nth_prime():
    assert [A.nth_prime(i) for i in range(1, 9)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert A.nth_prime(25) == 97
    with pytest.raises(ValueError):
        A.nth_prime(0)


def test_nth_prime_up_to_the_ceiling():
    # 999,983 is the largest prime below 10^6, so its index is pi(10^6)
    assert A.PRIME_INDEX_CEILING == 78498
    assert A.nth_prime(78498) == 999983
    with pytest.raises(ResourceLimit):
        A.nth_prime(78499)  # 1,000,003 is above the table


def test_encode_frozen_examples():
    assert A.encode(EMPTY) == 0
    assert A.encode(p('[1]')) == 1
    assert A.encode(p('2[1]')) == 2
    assert A.encode(p('3[1]')) == 4
    assert A.encode(p('[2]')) == 3
    assert A.encode(p('(3,1)')) == 10
    assert A.encode(p('2[3]+[1]')) == 50


def test_trivial_partitions_are_powers_of_two():
    for m in range(1, 20):
        code = A.encode(from_parts([1] * m))
        assert code == 2 ** (m - 1)
        assert A.decode(code) == from_parts([1] * m)


def test_decode_frozen_examples():
    assert A.decode(0) == EMPTY
    assert A.decode(1) == p('[1]')
    assert A.decode(50) == p('2[3]+[1]')
    assert A.decode(3 * 5 * 7) == p('(4,3,2)')


@settings(deadline=None)
@given(partitions)
def test_decode_encode_roundtrip(sigma):
    code = A.encode(sigma)
    assume(code <= A.DECODE_CEILING)
    assert A.decode(code) == sigma


@given(st.integers(0, 10 ** 6))
def test_encode_decode_roundtrip(n):
    assert A.encode(A.decode(n)) == n


def test_encoding_is_injective_on_a_window():
    universe = enumerate_universe(12)
    codes = {}
    for sigma in universe:
        code = A.encode(sigma)
        assert code not in codes
        codes[code] = sigma


def test_decode_large_prime():
    # the largest prime in the table, the code of the largest part
    # encode accepts
    assert A.decode(999983) == p('[78498]')
    assert A.encode(p('[78498]')) == 999983


def test_encode_ceiling():
    for text in ('[78499]', '[78499]+2[1]', '[100000]+[2]'):
        with pytest.raises(ResourceLimit):
            A.encode(p(text))


def test_encode_length_ceiling():
    assert A.ENCODE_LENGTH_CEILING == 2 ** 15
    assert A.encode(p('32768[1]')) == 2 ** 32767
    assert A.decode(2 ** 32767) == p('32768[1]')
    # the next power of two still decodes, to a partition encode refuses
    assert A.decode(2 ** 32768) == p('32769[1]')
    for text in ('32769[1]', '1000000[2]'):
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match='length ceiling'):
            A.encode(p(text))
        assert time.perf_counter() - start < 0.1, text


def _factorization_runs(n, primes):
    """n factored by trial division over the ascending primes, read as
    runs: the i-th prime to the power e is the run (i, e)."""
    runs = []
    for index, q in enumerate(primes, 1):
        if q * q > n:
            break
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            runs.append((index, e))
    if n > 1:
        runs.append((bisect.bisect_right(primes, n), 1))
    return tuple(reversed(runs))


def _multiples_of_top_primes(primes, ceiling):
    """k times the largest prime <= ceiling / k, for k = 1, ..., 10:
    codes near the ceiling with a large prime factor far up the table."""
    return [k * primes[bisect.bisect_right(primes, ceiling // k) - 1]
            for k in range(1, 11)]


def test_decode_reads_the_factorization_as_runs():
    limit = 10 ** 6
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = bytes(2)
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit + 1, i)))
    primes = list(itertools.compress(range(limit + 1), sieve))
    rng = random.Random(0)
    # ten draws from the table's top tenth, and codes near its end whose
    # largest prime factors are far up the table
    top = [rng.randrange(9 * 10 ** 5, limit + 1) for _ in range(10)]
    top += _multiples_of_top_primes(primes, limit)
    # and the codes up to the table's end
    ends = range(10 ** 6 - 100, 10 ** 6 + 1)
    for n in list(range(2, 5001)) + list(ends) + top:
        if n & (n - 1) == 0:        # 2^k codes the trivial (k+1)[1]
            want = ((1, n.bit_length()),)
        else:
            want = _factorization_runs(n, primes)
        assert A.decode(n).runs == want, n


def test_decode_indexes_2_3_and_the_table_primes():
    # 2s and 3s are stripped before the table is read, as it holds only
    # the n prime to 6; the table reads the prime powers that are left
    assert A.decode(3 * 2 ** 18).runs == ((2, 1), (1, 18))
    assert A.decode(5 ** 8).runs == ((3, 8),)
    assert A.decode(3 ** 12).runs == ((2, 12),)


def test_decode_ceiling():
    assert A.DECODE_CEILING == 10 ** 6
    assert A.decode(10 ** 6) == p('6[3]+6[1]')
    with pytest.raises(ResourceLimit):
        A.decode(A.DECODE_CEILING + 1)
    # powers of two code the trivial partitions, and decode at any size
    assert A.decode(2 ** 40) == p('41[1]')


@pytest.mark.parametrize('call', [
    lambda: A.decode(True), lambda: A.decode(False), lambda: A.decode(2.0),
    lambda: A.decode(float(2 ** 40)), lambda: A.decode('6'),
    lambda: A.nth_prime(True), lambda: A.nth_prime(2.0),
    lambda: A.nth_prime(float(10 ** 9)),
    lambda: A.primexp(True, 1, 4), lambda: A.primexp(1, True, 2),
    lambda: A.primexp(1, 1, 4.0)])
def test_codes_and_prime_indices_must_be_ints(call):
    # refused before any work: 2.0 ** 40 is not read as a power of two,
    # and 1e9 is not compared with the prime index ceiling
    with pytest.raises(ValueError):
        call()


@pytest.fixture
def fresh_tables(monkeypatch):
    """_tables, to be built anew; the module's tables return afterwards."""
    monkeypatch.setattr(A, '_wheel', None)
    monkeypatch.setattr(A, '_primes', None)
    return A._tables


def test_factor_table_matches_an_independent_sieve(fresh_tables):
    table, primes = fresh_tables()
    limit = A.DECODE_CEILING
    # ascending, each multiple keeping the first prime that reaches it
    spf = [0] * (limit + 1)
    for q in range(2, isqrt(limit) + 1):
        if not spf[q]:
            for m in range(q * q, limit + 1, q):
                if not spf[m]:
                    spf[m] = q
    want = [n for n in range(2, limit + 1) if not spf[n]]
    assert len(want) == 78498 and want[-1] == 999983
    assert primes == array('i', want)       # an int32 array, not a list
    # the table holds every index nth_prime serves
    assert len(primes) == A.PRIME_INDEX_CEILING
    assert A.nth_prime(A.PRIME_INDEX_CEILING) == want[-1]
    index = dict(zip(want, range(1, len(want) + 1)))
    # the n prime to 6, at n // 3: 0 for 1, minus the index of a prime,
    # else (index of the smallest prime factor q, its exponent, n / q^e)
    wheel = [n for n in range(1, limit + 1) if n % 6 in (1, 5)]
    assert [n // 3 for n in wheel] == list(range(len(table)))
    expected = [(0,)]
    for n in wheel[1:]:
        q, e, cofactor = spf[n], 0, n
        while q and cofactor % q == 0:
            cofactor //= q
            e += 1
        expected.append((index[q], e, cofactor) if q else (-index[n],))

    def unpacked(entry):
        k = entry & 0x3FFFF             # the entry of 3k + 1 + (k & 1)
        if entry > 0:
            return entry >> 23, entry >> 18 & 31, 3 * k + 1 + (k & 1)
        return (entry,)

    assert isinstance(table, array) and table.typecode == 'i'
    assert list(map(unpacked, table)) == expected


def test_factor_tables_are_two_compact_arrays(fresh_tables):
    # 333,333 int32 entries and 78,498 primes take 1.7 MB, built in place
    tracemalloc.start()
    try:
        fresh_tables()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 2 * 2 ** 20, held
    assert peak <= 2.5 * 2 ** 20, peak


def _trusted_products(decode, enumerate_level):
    """What decode and enumerate_level build through the trusted
    constructor: every partition of levels <= 25, decode(n) for n <= 10^5,
    and 310 codes in the factor table's top tenth, among them codes with
    a large prime factor far up the table."""
    rng = random.Random(0)
    top = [rng.randrange(9 * 10 ** 5, 10 ** 6 + 1) for _ in range(300)]
    top += _multiples_of_top_primes(A._tables()[1], 10 ** 6)
    yield from (pi for n in range(26) for pi in enumerate_level(n))
    yield from map(decode, itertools.chain(range(10 ** 5 + 1), top))


def _assert_slots_as_validated(partitions):
    elements = enumerate_universe(12).elements
    index = dict(zip(elements, range(len(elements))))
    for pi in partitions:
        rebuilt = Partition(pi.runs)
        for slot in Partition.__slots__:
            assert getattr(pi, slot) == getattr(rebuilt, slot), (pi.runs, slot)
        # the hash is computed on each call, not kept in a slot
        assert hash(pi) == hash(rebuilt), pi.runs
        assert pi.card > 12 or index.get(pi) == index[rebuilt], pi.runs


def test_trusted_partitions_equal_validated_ones():
    _assert_slots_as_validated(_trusted_products(A.decode, enumerate_level))


@pytest.mark.parametrize('module, name, old, new', [
    (A, 'decode', 'runs.reverse()', 'pass'),
    (P, 'enumerate_level', 'm + t.length', 't.length')])
def test_a_mutated_trusted_producer_fails_the_check(mutant, module, name,
                                                     old, new):
    producers = {'decode': A.decode, 'enumerate_level': enumerate_level}
    producers[name] = mutant(getattr(module, name), old, new)
    with pytest.raises((AssertionError, PartitionError)):
        _assert_slots_as_validated(_trusted_products(**producers))


def test_primexp():
    n = 2 ** 3 * 5 ** 2
    assert A.primexp(1, 3, n)
    assert A.primexp(3, 2, n)
    assert A.primexp(2, 0, n)
    assert not A.primexp(1, 2, n)
    with pytest.raises(ValueError):
        A.primexp(1, 1, 0)
    assert A.primexp(78498, 1, 999983)
    with pytest.raises(ResourceLimit):
        A.primexp(78499, 0, 1)


@settings(deadline=None)
@given(partitions, partitions)
@example(EMPTY, p('[6]+6[4]+[3]+[1]'))
@example(EMPTY, p('[9]+2[8]+3[3]+[2]+2[1]'))
def test_pullbacks_agree_with_code_arithmetic(rho, sigma):
    a, b = A.encode(rho), A.encode(sigma)
    assume(a * b <= A.DECODE_CEILING and a + b + 1 <= A.DECODE_CEILING)
    assert A.add_pullback(rho, sigma, A.decode(a + b))
    assert A.mult_pullback(rho, sigma, A.decode(a * b))
    assert not A.add_pullback(rho, sigma, A.decode(a + b + 1))


def test_totalize():
    assert A.totalize(EMPTY) == EMPTY
    assert A.totalize(p('[2]')) == p('[3]')
    assert A.totalize(p('2[3]+[1]')) == p('[50]')
    with pytest.raises(ResourceLimit):
        A.totalize(from_parts([30] * 30))
    # 2^39 is the largest power of two within 10^12
    assert A.totalize(Partition(((1, 40),))) == Partition(((549755813888, 1),))
    with pytest.raises(ResourceLimit, match=r'code of 41\[1\]'):
        A.totalize(Partition(((1, 41),)))


@pytest.mark.parametrize('runs', [((2, 10 ** 4),), ((2, 10 ** 7),)])
def test_totalize_refuses_before_it_builds_the_code(runs):
    # 3^(10^7) takes seconds to build, and 3^(10^4) too many digits to print
    A.nth_prime(1)
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match=r'code of %d\[2\]' % runs[0][1]):
        A.totalize(Partition(runs))
    assert time.perf_counter() - start < 0.1
