"""The prime-exponent encoding of partitions into the natural numbers.

The empty partition maps to 0 and the trivial partition m[1] to
2^(m-1); every other partition maps to the product over its runs of
nthPrime(partSize)^multiplicity.  Powers of two are exactly the images
of trivial partitions (any other partition has a part of size >= 2 and
hence an odd prime factor), which is what makes the map a bijection.

Everything here is exact arbitrary-precision arithmetic; the only
ceilings are the documented runtime guards on decode, nth_prime and
totalize.  Those guards depend on the argument alone, never on what an
earlier call happened to compute.
"""

from math import isqrt, log

from .partitions import EMPTY, Partition, ResourceLimit, leq

# decode factors every n <= this; above it, only powers of two decode
DECODE_CEILING = 10 ** 9
# nth_prime serves indices up to pi(DECODE_CEILING), the index of
# 999,999,937, the largest prime <= DECODE_CEILING; encode therefore
# inverts every partition decode can return
PRIME_INDEX_CEILING = 50847534
# totalize refuses to build totals taller than this
TOTALIZE_CEILING = 10 ** 12
# up to this, factors and prime indices come from one table lookup;
# above it, a prime's index is counted with _prime_count
_SPF_LIMIT = 10 ** 6
# width of the segments _kth_prime_after sieves
_SEGMENT = 1 << 18

_spf = None
_primes = None
# (index, prime) pairs above the table, both ways round, as counted
_large_prime = {}
_large_index = {}


def _tables():
    """The factor table up to _SPF_LIMIT and the ascending primes in it,
    built once on first use.

    table[n] is the smallest prime factor of a composite n, and minus
    the 1-based index of a prime n, so one lookup answers both what
    divides n and which prime it is.
    """
    global _spf, _primes
    if _spf is None:
        table = [0] * (_SPF_LIMIT + 1)
        # descending, so each multiple keeps its smallest prime factor
        for p in range(isqrt(_SPF_LIMIT), 1, -1):
            if all(p % q for q in range(2, isqrt(p) + 1)):
                table[p * p::p] = [p] * len(range(p * p, _SPF_LIMIT + 1, p))
        primes = [n for n in range(2, _SPF_LIMIT + 1) if not table[n]]
        for i, p in enumerate(primes, 1):
            table[p] = -i
        _spf, _primes = table, primes
    return _spf, _primes


def _prime_count(x):
    """pi(x), the number of primes <= x, by the Lucy_Hedgehog/Legendre
    recurrence in O(x^(3/4)) time and O(x^(1/2)) space.

    small[v] and large[i] hold S(v) and S(x // i), the count of n in
    [2, v] that are prime or have no prime factor below the current p;
    sifting out the multiples of each prime p <= sqrt(x) in turn leaves
    pi.
    """
    if x < 2:
        return 0
    r = isqrt(x)
    small = [v - 1 for v in range(r + 1)]
    large = [0] + [x // i - 1 for i in range(1, r + 1)]
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue
        below = small[p - 1]
        square = p * p
        for i in range(1, min(r, x // square) + 1):
            d = i * p
            large[i] -= (large[d] if d <= r else small[x // d]) - below
        for v in range(r, square - 1, -1):
            small[v] -= small[v // p] - below
    return large[1]


def _kth_prime_after(x, k):
    """The k-th prime above x, for k >= 1, by sieving segments upward
    from x with the table's primes; exact while the table holds every
    prime up to the square root of each segment's end, i.e. below 10^12."""
    primes = _tables()[1]
    lo = x + 1
    while True:
        hi = lo + _SEGMENT
        flags = bytearray(b'\x01') * _SEGMENT
        for p in primes:
            if p * p >= hi:
                break
            first = max(p * p, -(-lo // p) * p) - lo
            flags[first::p] = bytes(len(range(first, _SEGMENT, p)))
        found = flags.count(1)
        if found >= k:
            pos = -1
            for _ in range(k):
                pos = flags.index(1, pos + 1)
            return lo + pos
        k -= found
        lo = hi


def _remember(i, p):
    _large_prime[i] = p
    _large_index[p] = i


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
    primes = _primes or _tables()[1]
    if i <= len(primes):
        return primes[i - 1]
    if i not in _large_prime:
        # Dusart (1999): the i-th prime is >= i (ln i + ln ln i - 1)
        start = int(i * (log(i) + log(log(i)) - 1))
        _remember(i, _kth_prime_after(start, i - _prime_count(start)))
    return _large_prime[i]


def _index_of_prime(p):
    """The 1-based index of a prime p <= DECODE_CEILING."""
    if p <= _SPF_LIMIT:
        return -_tables()[0][p]
    if p not in _large_index:
        _remember(_prime_count(p), p)
    return _large_index[p]


def encode(sigma):
    """The numeric code of a partition.

    0 for the empty partition, 2^(m-1) for m[1], and otherwise the
    product of nthPrime(partSize)^multiplicity over the runs.
    """
    if not sigma.runs:
        return 0
    if sigma.runs[0][0] == 1:
        return 2 ** (sigma.runs[0][1] - 1)
    primes = _primes or _tables()[1]
    value = 1
    for n, m in sigma.runs:
        value *= (primes[n - 1] if n <= len(primes) else nth_prime(n)) ** m
    return value


def _runs(n):
    """The factorization of _SPF_LIMIT < n <= DECODE_CEILING as (prime
    index, exponent) pairs, ascending by prime."""
    if n > DECODE_CEILING:
        raise ResourceLimit('decode ceiling %d exceeded: %d' % (DECODE_CEILING, n))
    runs = []
    table = _spf or _tables()[0]
    for p in _primes:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            runs.append((-table[p], e))
    if n > 1:
        runs.append((_index_of_prime(n), 1))
    return runs


def decode(n):
    """The unique partition whose code is n.

    0 is the empty partition; a pure power 2^k is the trivial (k+1)[1];
    anything else reads its prime factorization as runs, the i-th prime
    carrying parts of size i.  Every n <= DECODE_CEILING decodes.
    """
    if type(n) is not int or n < 0:
        raise ValueError('codes are non-negative integers, got %r' % (n,))
    if n == 0:
        return EMPTY
    if n & (n - 1) == 0:
        k = n.bit_length()
        return Partition._canonical(((1, k),), k, k)
    if n > _SPF_LIMIT:
        runs = _runs(n)
        card, length = sum(i * e for i, e in runs), sum(e for _, e in runs)
    else:
        table, runs = _spf or _tables()[0], []
        card = length = 0
        while n > 1:
            p = table[n]
            if p < 0:                   # n is the (-p)-th prime
                i, e, n = -p, 1, 1
            else:
                i, e, n = -table[p], 1, n // p
                while n % p == 0:
                    n //= p
                    e += 1
            runs.append((i, e))
            card += i * e
            length += e
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


def ord_via_encoding(m, n):
    """The lattice order read through the encoding: decode both, compare."""
    return leq(decode(m), decode(n))


def add_pullback(rho, sigma, pi):
    """Addition pulled back through the encoding: #rho + #sigma = #pi."""
    return encode(rho) + encode(sigma) == encode(pi)


def mult_pullback(rho, sigma, pi):
    """Multiplication pulled back through the encoding: #rho * #sigma = #pi."""
    return encode(rho) * encode(sigma) == encode(pi)


def totalize(sigma):
    """The total partition whose cardinality is the code of sigma."""
    code = encode(sigma)
    if code == 0:
        return EMPTY
    if code > TOTALIZE_CEILING:
        raise ResourceLimit('totalize ceiling %d exceeded: %d'
                            % (TOTALIZE_CEILING, code))
    return Partition(((code, 1),))
