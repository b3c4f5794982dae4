"""The prime-exponent encoding of partitions into the natural numbers.

The empty partition maps to 0 and the trivial partition m[1] to
2^(m-1); every other partition maps to the product over its runs of
nthPrime(partSize)^multiplicity.  Powers of two are exactly the images
of trivial partitions (any other partition has a part of size >= 2 and
hence an odd prime factor), which is what makes the map a bijection.

Everything here is exact arbitrary-precision arithmetic; the only
ceilings are the documented runtime guards on decode, encode, nth_prime
and totalize.  Those guards depend on the argument alone, never on what
an earlier call happened to compute.
"""

from array import array
from itertools import compress, islice
from math import isqrt
from operator import not_

from .partitions import EMPTY, Partition, ResourceLimit, render

# decode factors every n <= this; above it, only powers of two decode.
# Factors and prime indices all come from the tables built up to here.
DECODE_CEILING = 10 ** 6
# nth_prime serves indices up to pi(DECODE_CEILING), the index of
# 999,983, the largest prime <= DECODE_CEILING; encode refuses a larger
# part, and every partition decode returns is within it
PRIME_INDEX_CEILING = 78498
# totalize refuses to build totals taller than this
TOTALIZE_CEILING = 10 ** 12
# encode refuses more parts than this: each part's prime is below 2^20,
# so a code has < 20 * 2^15 bits; 999983^32768 has 196,608 digits
ENCODE_LENGTH_CEILING = 2 ** 15

_wheel = None
_primes = None


def _tables():
    """The factor table of the n <= DECODE_CEILING prime to 6 and the
    ascending primes up to DECODE_CEILING, built once on first use as two
    int32 arrays (1.3 MB and 0.3 MB).

    table[n // 3] is 0 for n = 1, minus the 1-based index of a prime n,
    and for a composite n with smallest prime factor p to the power e,
    index(p) << 23 | e << 18 | (n / p^e) // 3: the next entry to read.
    The fields fit, as index(p) <= 168, e <= 8 and (n / p^e) // 3 < 2^18.
    The n prime to 6 are 1, 5, 7, 11, ..., 999997, at 0, 1, 2, 3, ...
    """
    global _wheel, _primes
    if _wheel is None:
        size = DECODE_CEILING // 3
        table = array('i', [0]) * size
        small = [p for p in range(5, isqrt(DECODE_CEILING) + 1)
                 if all(p % q for q in range(2, isqrt(p) + 1))]
        # descending, so each composite keeps its smallest prime factor;
        # exponents ascending, so it keeps that factor's exact exponent
        for i, p in reversed(list(enumerate(small, 3))):
            q, e = p, 1
            while q <= DECODE_CEILING:
                # cofactors m = r mod 6; from p up when e = 1, so p is unmarked
                for r in (1, 5):
                    m = r if e > 1 else p + (r - p) % 6
                    start, step = q * m // 3, 2 * q
                    head = i << 23 | e << 18 | m // 3
                    count = len(range(start, size, step))
                    table[start::step] = array(
                        'i', range(head, head + 2 * count, 2))
                q, e = q * p, e + 1
        primes = array('i', [2, 3])
        primes.extend(3 * k + 1 + (k & 1) for k in compress(
            range(1, size), map(not_, islice(table, 1, None))))
        for i, p in enumerate(islice(primes, 2, None), 3):
            table[p // 3] = -i
        _wheel, _primes = table, primes
    return _wheel, _primes


def nth_prime(i):
    """The i-th prime, 1-indexed: nth_prime(1) = 2.

    Served for every i <= PRIME_INDEX_CEILING; a larger index raises
    ResourceLimit before any work is done.
    """
    if type(i) is not int or i < 1:
        raise ValueError('prime indices are integers >= 1, got %r' % (i,))
    if i > PRIME_INDEX_CEILING:
        raise ResourceLimit('prime index ceiling %d exceeded (wanted %d)'
                            % (PRIME_INDEX_CEILING, i))
    return (_primes or _tables()[1])[i - 1]


def encode(sigma):
    """The numeric code of a partition.

    0 for the empty partition, 2^(m-1) for m[1], and otherwise the
    product of nthPrime(partSize)^multiplicity over the runs.  A part
    above PRIME_INDEX_CEILING, or more than ENCODE_LENGTH_CEILING parts,
    raises ResourceLimit before any work is done.
    """
    if not sigma.runs:
        return 0
    if sigma.length > ENCODE_LENGTH_CEILING:
        raise ResourceLimit('encode length ceiling %d exceeded (%d parts)'
                            % (ENCODE_LENGTH_CEILING, sigma.length))
    # runs descend, so every part lies in the table when the largest does
    if sigma.largest > PRIME_INDEX_CEILING:
        raise ResourceLimit('prime index ceiling %d exceeded (a part of %d)'
                            % (PRIME_INDEX_CEILING, sigma.largest))
    if sigma.runs[0][0] == 1:
        return 2 ** (sigma.runs[0][1] - 1)
    primes = _primes or _tables()[1]
    value = 1
    for n, m in sigma.runs:
        value *= primes[n - 1] ** m
    return value


def decode(n):
    """The unique partition whose code is n.

    0 is the empty partition; a pure power 2^k is the trivial (k+1)[1];
    anything else reads its prime factorization as runs, the i-th prime
    carrying parts of size i.  Every n <= DECODE_CEILING and every power
    of two decodes; any other n raises ResourceLimit before any work.
    """
    if type(n) is not int or n < 0:
        raise ValueError('codes are non-negative integers, got %r' % (n,))
    if n == 0:
        return EMPTY
    if n & (n - 1) == 0:
        k = n.bit_length()
        return Partition._canonical(((1, k),), k, k)
    if n > DECODE_CEILING:
        raise ResourceLimit('decode ceiling %d exceeded: %d'
                            % (DECODE_CEILING, n))
    table = _wheel or _tables()[0]
    e = (n & -n).bit_length() - 1   # 2 divides n exactly e times
    runs, card, length, n = [(1, e)] if e else [], e, e, n >> e
    if n % 3 == 0:                  # the table holds only n prime to 6
        e = 0
        while n % 3 == 0:
            n //= 3
            e += 1
        runs.append((2, e))
        card, length = card + 2 * e, length + e
    entry = table[n // 3]
    while entry > 0:                # the smallest prime factor's run
        i, e = entry >> 23, entry >> 18 & 31
        runs.append((i, e))
        card += i * e
        length += e
        entry = table[entry & 0x3FFFF]
    if entry:                       # the cofactor is the (-entry)-th prime
        runs.append((-entry, 1))
        card, length = card - entry, length + 1
    # ascending by prime, so the reverse is canonical and needs no checks
    runs.reverse()
    return Partition._canonical(tuple(runs), card, length)


def primexp(i, m, n):
    """Does the i-th prime divide n with exponent exactly m?"""
    if not all(type(v) is int for v in (i, m, n)) or n < 1:
        raise ValueError('primexp needs integers and n >= 1, got %r'
                         % ((i, m, n),))
    p = nth_prime(i)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e == m


def add_pullback(rho, sigma, pi):
    """Addition pulled back through the encoding: #rho + #sigma = #pi."""
    return encode(rho) + encode(sigma) == encode(pi)


def mult_pullback(rho, sigma, pi):
    """Multiplication pulled back through the encoding: #rho * #sigma = #pi."""
    return encode(rho) * encode(sigma) == encode(pi)


def totalize(sigma):
    """The total partition whose cardinality is the code of sigma, refused
    above TOTALIZE_CEILING, before the code is built when it surely is."""
    # nth_prime(n)**m has at least m * (bit_length - 1) bits, and m[1]'s
    # code 2^(m-1) has exactly m: the sum bounds the code's bit length
    low = sum(m * (nth_prime(n).bit_length() - 1) for n, m in sigma.runs)
    if (low > TOTALIZE_CEILING.bit_length()
            or (code := encode(sigma)) > TOTALIZE_CEILING):
        raise ResourceLimit('totalize ceiling %d exceeded by the code of %s'
                            % (TOTALIZE_CEILING, render(sigma)))
    return Partition(((code, 1),)) if code else EMPTY
