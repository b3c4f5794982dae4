"""The prime-exponent encoding: bijectivity, order transport, ceilings."""

import bisect
import itertools
import random
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from young_defined import arithmetization as A
from young_defined import partitions as P
from young_defined.partitions import (EMPTY, Partition, PartitionError,
                                      ResourceLimit, enumerate_level,
                                      enumerate_universe, from_parts, leq,
                                      parse_partition)

p = parse_partition
partitions = st.lists(st.integers(1, 9), max_size=9).map(from_parts)


def test_nth_prime():
    assert [A.nth_prime(i) for i in range(1, 9)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert A.nth_prime(25) == 97
    # the first indices above the table; Dusart's bound for 78,499 lies
    # below the table's end, so the segment sieve starts inside it
    assert A.nth_prime(78499) == 1000003
    assert A.nth_prime(78500) == 1000033
    with pytest.raises(ValueError):
        A.nth_prime(0)


def test_nth_prime_up_to_the_ceiling():
    # published values: the millionth prime, and 999,999,937, the
    # largest prime below 10^9, whose index is pi(10^9)
    assert A.nth_prime(10 ** 6) == 15485863
    assert A.nth_prime(50847534) == 999999937
    with pytest.raises(ResourceLimit):
        A.nth_prime(50847535)  # 1,000,000,007 is above the ceiling


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


@settings(deadline=None, max_examples=25)
@given(st.integers(10 ** 6, A.DECODE_CEILING))
def test_encode_decode_roundtrip_up_to_the_ceiling(n):
    assert A.encode(A.decode(n)) == n


def test_decode_large_prime():
    # 20920901 is the 1325274th prime, as a plain sieve counts
    assert A.decode(20920901) == p('[1325274]')
    assert A.encode(p('[1325274]')) == 20920901


def test_decode_run_order_above_the_table():
    # 1000003 is the first prime above 10^6, so its index is
    # pi(10^6) + 1 = 78499; the factor 3 is repeated
    n = 2 * 3 ** 2 * 1000003
    assert n > 10 ** 6
    sigma = A.decode(n)
    assert sigma == from_parts([78499, 2, 2, 1])
    assert sigma.runs == ((78499, 1), (2, 2), (1, 1))
    assert A.encode(sigma) == n


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


def test_decode_reads_the_factorization_as_runs():
    limit = 3 * 10 ** 6
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = bytes(2)
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit + 1, i)))
    primes = list(itertools.compress(range(limit + 1), sieve))
    rng = random.Random(0)
    # ten draws, and k times the k-th prime above 10^6, whose index is
    # counted rather than read from the table
    above = [rng.randrange(10 ** 6 + 1, limit) for _ in range(10)]
    above += [k * q for k, q in enumerate(primes[78498:78508], 1)]
    for n in list(range(2, 5001)) + above:
        if n & (n - 1) == 0:        # 2^k codes the trivial (k+1)[1]
            want = ((1, n.bit_length()),)
        else:
            want = _factorization_runs(n, primes)
        assert A.decode(n).runs == want, n


def test_decode_does_not_depend_on_earlier_calls():
    A.decode(10000019)
    assert A.decode(19000013) == p('[1211051]')


def test_decode_ceiling():
    with pytest.raises(ResourceLimit):
        A.decode(A.DECODE_CEILING + 1)


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


def _trusted_products(decode, enumerate_level):
    """What decode and enumerate_level build through the trusted
    constructor: every partition of levels <= 25, decode(n) for n <= 10^5,
    and 310 codes above the factor table, among them k times the k-th
    prime above 10^6, whose index is counted rather than read."""
    rng = random.Random(0)
    above = [rng.randrange(10 ** 6 + 1, 4 * 10 ** 6) for _ in range(300)]
    above += [k * A.nth_prime(78498 + k) for k in range(1, 11)]
    yield from (pi for n in range(26) for pi in enumerate_level(n))
    yield from map(decode, itertools.chain(range(10 ** 5 + 1), above))


def _assert_slots_as_validated(partitions):
    for pi in partitions:
        rebuilt = Partition(pi.runs)
        for slot in Partition.__slots__:
            assert getattr(pi, slot) == getattr(rebuilt, slot), (pi.runs, slot)


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


def test_ord_via_encoding_matches_leq():
    universe = enumerate_universe(9)
    for sigma in universe:
        for pi in universe:
            assert A.ord_via_encoding(A.encode(sigma), A.encode(pi)) \
                == leq(sigma, pi)


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
