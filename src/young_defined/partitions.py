"""Integer partitions and the primitive structure of Young's lattice.

A partition is kept in canonical run-length form: a tuple of
(partSize, multiplicity) pairs with part sizes strictly decreasing and
every multiplicity >= 1.  The empty tuple is the empty partition.
The containment order, covers, conjugation, grading and bounded
enumeration all live here; everything downstream builds on them.
"""

import bisect
import functools
import itertools
import re
from array import array


class PartitionError(ValueError):
    """Raised for malformed parts, runs, or unparseable partition text."""


class ResourceLimit(RuntimeError):
    """Raised when a computation exceeds its documented practical ceiling."""


# Practical ceiling for full enumeration: there are 1,295,971 partitions
# of cardinality <= 50, which stay comfortably in memory.
MAX_ENUMERATION_CARD = 50

# Practical ceiling for the two bit caches of one universe together
# (Universe.down_bits and up_bits), checked before either is built.  With
# n elements, down mask i spans i + 1 bits and up mask i, stored from its
# own ordinal, at most n - i, so the masks take under n**2 / 8 bytes; each
# element adds two list slots and two int headers.  Counted from the mask
# widths: ~156 MB at maxCard 31, ~1.21 GB at 36, ~1.80 GB at 37 and
# ~2.66 GB at 38, so the ceiling admits 37 and refuses 38.
MAX_BIT_CACHE_BYTES = 2 * 2 ** 30


def bit_cache_bytes(elements):
    """Upper estimate of the bytes of the two bit caches over that many
    elements: n**2 / 8 for the masks, 96 per element, 128 for the lists."""
    return elements * elements // 8 + 96 * elements + 128


class Partition:
    """A partition in canonical run-length form.

    runs is a tuple of (size, mult) pairs, sizes strictly decreasing.
    cardinality, length and largest part are computed once and cached,
    since the harness consults them in every inner loop.
    """

    __slots__ = ('runs', 'card', 'length', 'largest', '_hash')

    def __init__(self, runs):
        # one pass over any iterable of pairs: validate, accumulate, copy
        # each pair that is not a plain tuple (unpacking proved it a pair)
        out = []
        card = length = 0
        previous = None
        for run in runs:
            n, m = run
            if type(n) is not int or type(m) is not int or n < 1 or m < 1:
                raise PartitionError('bad run (%r,%r): need positive integers' % (n, m))
            if previous is not None and n >= previous:
                raise PartitionError('run sizes must strictly decrease')
            previous = n
            out.append(run if type(run) is tuple else (n, m))
            card += n * m
            length += m
        runs = tuple(out)
        self.runs = runs
        self.card = card
        self.length = length
        self.largest = runs[0][0] if runs else 0
        self._hash = hash(runs)

    @classmethod
    def _canonical(cls, runs, card, length):
        """The trusted constructor of enumerate_level and decode: it checks
        nothing, as runs is non-empty, canonical, of that card and length."""
        self = object.__new__(cls)
        self.runs, self.card, self.length = runs, card, length
        self.largest, self._hash = runs[0][0], hash(runs)
        return self

    def parts(self):
        """The expanded descending part sequence, e.g. (3,1,1)."""
        out = []
        for n, m in self.runs:
            out.extend([n] * m)
        return tuple(out)

    def multiplicity(self, n):
        """How many parts of size n the partition has."""
        for size, m in self.runs:
            if size == n:
                return m
            if size < n:
                return 0
        return 0

    def has_part(self, n):
        return self.multiplicity(n) > 0

    def __eq__(self, other):
        return isinstance(other, Partition) and self.runs == other.runs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return 'Partition(%r)' % render(self)


EMPTY = Partition(())


def from_parts(parts):
    """Build the canonical partition from any iterable of positive parts."""
    counts = {}
    for p in parts:
        if type(p) is not int or p < 1:
            raise PartitionError('parts must be positive integers, got %r' % (p,))
        counts[p] = counts.get(p, 0) + 1
    return Partition(sorted(counts.items(), reverse=True))


def leq(sigma, pi):
    """Containment order: row i of sigma is no longer than row i of pi;
    equivalently, for every s, sigma has no more parts >= s than pi (the
    conjugate comparison sigma' <= pi').

    One pass checks the second form at each run (size, mult) of sigma:
    need counts sigma's parts >= size, and pi's runs are taken, largest
    first, while they hold fewer than need rows; pi has fewer than need
    parts >= size exactly when a run so taken is narrower than size.  The
    length check keeps the walk inside pi's runs.
    """
    if sigma.length > pi.length or sigma.largest > pi.largest:
        return False
    runs_p = pi.runs
    j = have = need = 0
    for size, mult in sigma.runs:
        need += mult
        while have < need:
            size_p, mult_p = runs_p[j]
            if size_p < size:
                return False
            have += mult_p
            j += 1
    return True


def _lower_cover_runs(runs):
    """The run tuples of the lower covers of a partition, one per run:
    remove one box from the last row of that run."""
    for idx, (n, m) in enumerate(runs):
        head = runs[:idx] if m == 1 else runs[:idx] + ((n, m - 1),)
        tail = runs[idx + 1:]
        if n == 1:                            # the last run loses a row
            yield head
        elif tail and tail[0][0] == n - 1:    # merge into the following run
            yield head + ((n - 1, tail[0][1] + 1),) + tail[1:]
        else:
            yield head + ((n - 1, 1),) + tail


def lower_covers(pi):
    """All partitions covered by pi, one per run of pi."""
    return {Partition(r) for r in _lower_cover_runs(pi.runs)}


def _upper_cover_runs(runs):
    """The run tuples of the upper covers of a partition, one per run and
    one more: add a box to the first row of that run, or start a new row."""
    for idx, (n, m) in enumerate(runs):
        head = runs[:idx]
        tail = runs[idx + 1:] if m == 1 else ((n, m - 1),) + runs[idx + 1:]
        if head and head[-1][0] == n + 1:     # merge into the run before
            yield head[:-1] + ((n + 1, head[-1][1] + 1),) + tail
        else:
            yield head + ((n + 1, 1),) + tail
    if runs and runs[-1][0] == 1:             # the last run gains a row
        yield runs[:-1] + ((1, runs[-1][1] + 1),)
    else:
        yield runs + ((1, 1),)


def upper_covers(pi, universe):
    """All covers of pi inside the universe (its next level must exist),
    one per run of pi and one more."""
    if pi.card + 1 > universe.max_card:
        raise ResourceLimit('level %d is not enumerated (maxCard=%d)'
                            % (pi.card + 1, universe.max_card))
    return {Partition(r) for r in _upper_cover_runs(pi.runs)}


def conjugate(pi):
    """The transpose partition (rows and columns of the diagram swapped)."""
    runs = pi.runs
    if not runs:
        return EMPTY
    out = []
    rows = 0
    for idx, (n, m) in enumerate(runs):
        rows += m
        below = runs[idx + 1][0] if idx + 1 < len(runs) else 0
        # columns of width rows, one for each size step from n down to below
        out.append((rows, n - below))
    out.reverse()
    return Partition(out)


@functools.lru_cache(maxsize=None, typed=True)
def factorial_partition(n):
    """The staircase (n, n-1, ..., 1); n = 0 gives the empty partition.
    Memoized, as sweeps ask for it per tuple; typed, so 2.0 is refused."""
    if type(n) is not int or n < 0:
        raise PartitionError('need an integer n >= 0, got %r' % (n,))
    return Partition((k, 1) for k in range(n, 0, -1))


def meet(sigma, pi):
    """Greatest lower bound: componentwise minimum of the part sequences."""
    a, b = sigma.parts(), pi.parts()
    return from_parts(min(x, y) for x, y in zip(a, b))


def join(sigma, pi):
    """Least upper bound: componentwise maximum of the padded part sequences."""
    a, b = sigma.parts(), pi.parts()
    if len(a) < len(b):
        a = a + (0,) * (len(b) - len(a))
    else:
        b = b + (0,) * (len(a) - len(b))
    return from_parts(max(x, y) for x, y in zip(a, b))


def _blocks(n):
    """The first runs (s, m) of the partitions of n in level order, with
    r = n - s*m; (1, n) is the only one of size 1."""
    for s in range(n, 0, -1):
        for m in range(n // s, 0, -1) if s > 1 else (n,):
            yield s, m, n - s * m


def _suffix(level, s):
    """The partitions of a level with every part < s: levels are ordered
    largest part first, so they are a suffix."""
    return level[bisect.bisect_left(level, 1 - s, key=lambda pi: -pi.largest):]


@functools.lru_cache(maxsize=None, typed=True)
def enumerate_level(n):
    """All partitions of n, in reverse-lexicographic (largest-first) order,
    as a tuple built once per process and shared by every universe (typed,
    so 2.0 is never served the cached answer for 2 and is still refused).

    Level n is one block per first run (s, m) of _blocks: (s, m) + t for
    each t of level r = n - s*m with every part < s, in level r's order.
    """
    if n == 0:
        return (Partition(()),)
    return tuple(Partition._canonical(((s, m),) + t.runs, n, m + t.length)
                 for s, m, r in _blocks(n)
                 for t in _suffix(enumerate_level(r), s))


class Universe:
    """All partitions of cardinality 0..maxCard, graded and indexed.

    Level n holds the partitions of n in reverse-lexicographic order on
    the descending part sequence, so enumeration is reproducible run to
    run.  index maps a partition to its ordinal, its position in one
    global numbering level by level, which the bitmask caches use.
    """

    def __init__(self, max_card):
        if type(max_card) is not int:
            raise PartitionError('maxCard must be an integer, got %r' % (max_card,))
        if max_card < 0:
            raise PartitionError('maxCard must be >= 0')
        if max_card > MAX_ENUMERATION_CARD:
            raise ResourceLimit('maxCard %d exceeds the practical ceiling %d'
                                % (max_card, MAX_ENUMERATION_CARD))
        self.max_card = max_card
        self.levels = [enumerate_level(n) for n in range(max_card + 1)]
        self.elements = [pi for level in self.levels for pi in level]
        self.index = dict(zip(self.elements, range(len(self.elements))))
        # ordinal of the first element of each level, then the total
        self._offsets = list(itertools.accumulate(map(len, self.levels),
                                                  initial=0))
        self._covers = None
        self._down_bits = None
        self._up_bits = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, pi):
        return pi in self.index

    def ordinal(self, pi):
        """Global position of pi in the level-by-level enumeration."""
        return self.index[pi]

    def ordinal_cutoff(self, card):
        """Number of elements with cardinality <= card (0 below 0)."""
        return self._offsets[min(max(card, -1), self.max_card) + 1]

    def _check_bit_cache(self):
        """Refuse, before allocating, caches above MAX_BIT_CACHE_BYTES."""
        need = bit_cache_bytes(len(self.elements))
        if need > MAX_BIT_CACHE_BYTES:
            raise ResourceLimit('the bit caches of maxCard %d need about %d '
                                'bytes, over the ceiling %d'
                                % (self.max_card, need, MAX_BIT_CACHE_BYTES))

    def cover_table(self):
        """The lower covers of every element as one flat array of ordinals,
        those of ordinal i at covers[offsets[i]:offsets[i + 1]], in the
        order of _lower_cover_runs.

        Built by arithmetic on enumerate_level's blocks, from the rows of
        the levels below.  For e = (s, m) + t, t in level r = n - s*m:
        - the tail covers (s, m) + t', t' a lower cover of t, stay in block
          (s, m) of level n - 1: they are t's row plus a constant;
        - the head cover is the last element of level n - 1 if s = 1.  Else,
          with t = (s-1, k) + t2 (k = 0 if t has no part s - 1), it is
          u = (s-1, k+1) + t2 if m = 1 and (s, m-1) + u if m > 1: t's
          ordinal plus a constant for each k.
        """
        if self._covers is None:
            covers, offsets = array('i'), array('i', [0, 0])
            off, starts = self._offsets, [None]

            def start(n, s, m):
                """Index in level n of block (s, m); block (s, 0) is the
                partitions of n with every part < s."""
                return starts[n][s][m] if s <= n else 0

            for n in range(1, self.max_card + 1):
                level, pos = [None] * (n + 1), 0
                for s in range(n, 0, -1):
                    level[s] = row = [0] * (n // s + 1)
                    for m in range(n // s, 0, -1):
                        r = n - s * m
                        row[m] = pos
                        pos += off[r + 1] - off[r] - start(r, s, 0)
                    row[0] = pos
                starts.append(level)
                for s, m, r in _blocks(n):
                    if s == 1:
                        covers.append(off[n] - 1)
                        offsets.append(len(covers))
                        continue
                    tail = (off[n - 1] + start(n - 1, s, m) - off[r - 1]
                            - start(r - 1, s, 0)) if r else 0
                    head = (off[n - 1] + start(n - 1, s, m - 1) - off[r]
                            - start(r + s - 1, s, 0))
                    for k in range(r // (s - 1), -1, -1):
                        lo = off[r] + start(r, s - 1, k)
                        hi = (off[r] + start(r, s - 1, k - 1) if k
                              else off[r + 1])
                        shift = (head + start(r + s - 1, s - 1, k + 1)
                                 - start(r, s - 1, k))
                        for g in range(lo, hi):
                            covers.append(g + shift)
                            covers.extend([x + tail for x in
                                           covers[offsets[g]:offsets[g + 1]]])
                            offsets.append(len(covers))
            self._covers = covers, offsets
        return self._covers

    def down_bits(self):
        """For each ordinal i, a bitmask of the ordinals j with elem_j <= elem_i.

        Built by one pass up the levels: the down-set of pi is pi itself
        together with the down-sets of its lower covers.
        """
        if self._down_bits is None:
            self._check_bit_cache()
            covers, offsets = self.cover_table()
            bits = []
            for i in range(len(self.elements)):
                mask = 1 << i
                for j in covers[offsets[i]:offsets[i + 1]]:
                    mask |= bits[j]
                bits.append(mask)
            self._down_bits = bits
        return self._down_bits

    def up_bits(self):
        """For each ordinal i, a bitmask of the ordinals j >= i with
        elem_i <= elem_j, stored from its own ordinal: bit j - i.

        Every element above elem_i comes after it, so no bit below i is
        ever set and up_bits()[i] << i is the mask over all ordinals.
        Built by one pass down the levels: when pi is reached, all its
        upper covers have ORed their up-sets into its mask, which it then
        ORs into the mask of each lower cover j, shifted by i - j.
        """
        if self._up_bits is None:
            self._check_bit_cache()
            covers, offsets = self.cover_table()
            bits = [0] * len(self.elements)
            for i in range(len(bits) - 1, -1, -1):
                mask = bits[i] = bits[i] | 1
                for j in covers[offsets[i]:offsets[i + 1]]:
                    bits[j] |= mask << i - j
            self._up_bits = bits
        return self._up_bits

    def strictly_above(self, mask, stop):
        """The ordinals j < stop strictly above a member of mask, as a mask:
        one pass up the cover table from past mask's lowest bit marks j when
        a lower cover, which has a smaller ordinal, is in mask or marked."""
        covers, offsets = self.cover_table()
        seen = bytearray(format(mask, 'b').zfill(stop)[:-stop - 1:-1],
                         'ascii').translate(bytes.maketrans(b'01', b'\0\1'))
        hit = bytearray(b'0') * stop
        for j in range((mask & -mask).bit_length() or stop, stop):
            for c in covers[offsets[j]:offsets[j + 1]]:
                if seen[c]:
                    seen[j], hit[j] = 1, 49     # 49 is ord('1')
                    break
        return int(hit[::-1] or b'0', 2)

    def up_mask(self, i):
        """up_bits()[i] << i, read off the down cache: bit j >= i is set
        when down_bits()[j] has bit i."""
        down, bit = self.down_bits(), 1 << i
        return int('0' + ''.join('1' if down[j] & bit else '0' for j in
                                 range(len(down) - 1, i - 1, -1)), 2) << i


def enumerate_universe(max_card):
    """Materialize the lattice up to the given cardinality."""
    return Universe(max_card)


_pcounts = [1, 1]


def partition_count(n):
    """p(n) by Euler's pentagonal-number recurrence.

    Kept deliberately independent of the enumerator so the two can
    cross-check each other.
    """
    if type(n) is not int:
        raise PartitionError('need an integer n, got %r' % (n,))
    if n < 0:
        return 0
    while len(_pcounts) <= n:
        m = len(_pcounts)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m:
                break
            term = _pcounts[m - g1] + (_pcounts[m - g2] if g2 <= m else 0)
            total += term if k % 2 == 1 else -term
            k += 1
        _pcounts.append(total)
    return _pcounts[n]


def render(pi):
    """Canonical-sum syntax: 0 for the empty partition, else m[n] terms.

    The multiplicity is omitted when it is 1, so (6,6,5,4,4,4) renders
    as 2[6]+[5]+3[4].
    """
    if not pi.runs:
        return '0'
    terms = []
    for n, m in pi.runs:
        terms.append('[%d]' % n if m == 1 else '%d[%d]' % (m, n))
    return '+'.join(terms)


_TERM_RE = re.compile(r'^(\d+)?\[(\d+)\]$')


def parse_partition(text):
    """Parse canonical-sum syntax (0, [n], m[n]+...) or a tuple (6,6,5).

    Sum terms may repeat a size or arrive out of order; the result is
    canonicalized, so [1]+[1] is the same partition as 2[1].
    """
    text = text.strip()
    if text == '0':
        return EMPTY
    if text.startswith('('):
        if not text.endswith(')'):
            raise PartitionError('unterminated tuple form: %r' % text)
        inner = text[1:-1].strip()
        if not inner:
            return EMPTY
        try:
            parts = [int(tok.strip()) for tok in inner.split(',') if tok.strip() != '']
        except ValueError:
            raise PartitionError('bad tuple form: %r' % text)
        return from_parts(parts)
    counts = {}
    for raw in text.split('+'):
        match = _TERM_RE.match(raw.strip())
        if not match:
            raise PartitionError('bad term %r in %r' % (raw.strip(), text))
        mult = int(match.group(1)) if match.group(1) else 1
        size = int(match.group(2))
        if size < 1 or mult < 1:
            raise PartitionError('bad term %r in %r' % (raw.strip(), text))
        counts[size] = counts.get(size, 0) + mult
    return Partition(sorted(counts.items(), reverse=True))
