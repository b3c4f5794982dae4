"""Integer partitions and the primitive structure of Young's lattice.

A partition is kept in canonical run-length form: a tuple of
(partSize, multiplicity) pairs with part sizes strictly decreasing and
every multiplicity >= 1.  The empty tuple is the empty partition.
The containment order, covers, conjugation, grading and bounded
enumeration all live here; everything downstream builds on them.
"""

import functools
import itertools
import re


class PartitionError(ValueError):
    """Raised for malformed parts, runs, or unparseable partition text."""


class ResourceLimit(RuntimeError):
    """Raised when a computation exceeds its documented practical ceiling."""


# Practical ceiling for full enumeration: there are 1,295,971 partitions
# of cardinality <= 50, which stay comfortably in memory.
MAX_ENUMERATION_CARD = 50

# Practical ceiling for the two bit caches of one universe together
# (Universe.down_bits and up_bits), checked where the down-row or the up-row
# store is made.  With n elements, down mask i spans i + 1 bits and up
# mask i, from its own ordinal, at most n - i: under n**2 / 8 bytes.  Each
# element adds two int headers and two slots of lists made at full length
# (never grown, which over-allocates).  So ~156 MB at maxCard 31, ~1.21 GB
# at 36, ~1.80 GB at 37 and ~2.66 GB at 38: the ceiling admits 37, not 38.
MAX_BIT_CACHE_BYTES = 2 * 2 ** 30


def bit_cache_bytes(elements):
    """Upper estimate of the bytes of the two bit caches over that many
    elements: n**2 / 8 for the masks, 96 per element, 128 for the lists."""
    return elements * elements // 8 + 96 * elements + 128


class Partition:
    """A partition in canonical run-length form.

    runs is a tuple of (size, mult) pairs, sizes strictly decreasing.
    cardinality, length and largest part are computed once and cached,
    since the harness consults them in every inner loop; the hash is not
    cached, but computed from runs on each call.
    """

    __slots__ = ('runs', 'card', 'length', 'largest')

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

    @classmethod
    def _canonical(cls, runs, card, length):
        """The trusted constructor of enumerate_level and decode: it checks
        nothing, as runs is non-empty, canonical, of that card and length."""
        self = object.__new__(cls)
        self.runs, self.card, self.length = runs, card, length
        self.largest = runs[0][0]
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
        return hash(self.runs)

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


def _blocks(n):
    """The first runs (s, m) of the partitions of n in level order, with
    r = n - s*m; (1, n) is the only one of size 1."""
    for s in range(n, 0, -1):
        for m in range(n // s, 0, -1) if s > 1 else (n,):
            yield s, m, n - s * m


@functools.lru_cache(maxsize=None)
def _starts(n):
    """Level n's block starts, once per process: [s][m], m >= 1, is the
    index in enumerate_level(n) of block (s, m), and [s][0] that of the
    partitions of n with every part < s, which follow block (s, 1)."""
    starts, pos = [None] * (n + 1), 0
    for s in range(n, 0, -1):
        starts[s] = row = [0] * (n // s + 1)
        for m in range(n // s, 0, -1):
            r = n - s * m
            row[m] = pos
            pos += len(enumerate_level(r)) - _start(r, s, 0)
        row[0] = pos
    return starts


def _start(n, s, m):
    """_starts(n)[s][m], and 0 when s > n: all of level n is below s."""
    return _starts(n)[s][m] if s <= n else 0


@functools.lru_cache(maxsize=None, typed=True)
def enumerate_level(n):
    """All partitions of n, in reverse-lexicographic (largest-first) order,
    as a tuple built once per process and shared by every universe (typed,
    so 2.0 is never served the cached answer for 2 and is still refused).

    Level n is one block per first run (s, m) of _blocks: (s, m) + t for
    each t of level r = n - s*m with every part < s, in level r's order:
    the suffix of level r from _start(r, s, 0).
    """
    if n == 0:
        return (Partition(()),)
    level = []
    for s, m, r in _blocks(n):
        head = ((s, m),)                # one run object for the whole block
        level.extend(Partition._canonical(head + t.runs, n, m + t.length)
                     for t in enumerate_level(r)[_start(r, s, 0):])
    return tuple(level)


class Universe:
    """All partitions of cardinality 0..maxCard, graded and numbered.

    Level n holds the partitions of n in reverse-lexicographic order on
    the descending part sequence, so enumeration is reproducible run to
    run.  A partition's ordinal, its position in one global numbering
    level by level, is its level's offset plus its place in the level.
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
        # ordinal of the first element of each level, then the total
        self._offsets = list(itertools.accumulate(map(len, self.levels),
                                                  initial=0))
        self._covers = None
        self._down_bits = None      # down_row's store, None until first asked
        self._up_bits = None        # up_row's, likewise
        self._cells = {}            # _cell's, by (a, b)
        self._up_memo = {}          # _contain's, by (a, b, n), a*b <= n

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, pi):
        # every partition of cardinality <= max_card is enumerated
        return pi.card <= self.max_card

    def ordinal(self, pi):
        """Global position of pi in the level-by-level enumeration, by a
        scan of pi's level, linear in its size: the caches and tables are
        indexed by ordinal, so only formula constants and the values
        formulas.evaluate is given are looked up."""
        return self._offsets[pi.card] + self.levels[pi.card].index(pi)

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
        """Row i: the ordinals of element i's lower covers as one tuple, in
        the order of _lower_cover_runs, each entry the one shared int of
        its ordinal, so that a row costs only its pointers.  Built whole on
        first request; only the harness's cover suites read it.

        Built by arithmetic on enumerate_level's blocks, from the rows of
        the levels below.  For e = (s, m) + t, t in level r = n - s*m:
        - the tail covers (s, m) + t', t' a lower cover of t, stay in block
          (s, m) of level n - 1: they are t's row plus a constant;
        - the head cover is the last element of level n - 1 if s = 1.  Else,
          with t = (s-1, k) + t2 (k = 0 if t has no part s - 1), it is
          u = (s-1, k+1) + t2 if m = 1 and (s, m-1) + u if m > 1: t's
          ordinal plus a constant for each k.
        """
        if self._covers is not None:
            return self._covers
        rows, off, start = [()], self._offsets, _start
        for n in range(1, self.max_card + 1):
            ordinals = list(range(off[n - 1], off[n]))     # level n - 1's
            for s, m, r in _blocks(n):
                if s == 1:
                    rows.append((ordinals[-1],))
                    continue
                tail = (start(n - 1, s, m) - off[r - 1]
                        - start(r - 1, s, 0)) if r else 0
                head = start(n - 1, s, m - 1) - off[r] - start(r + s - 1, s, 0)
                for k in range(r // (s - 1), -1, -1):
                    lo = off[r] + start(r, s - 1, k)
                    hi = off[r] + start(r, s - 1, k - 1) if k else off[r + 1]
                    shift = (head + start(r + s - 1, s - 1, k + 1)
                             - start(r, s - 1, k))
                    for g in range(lo, hi):
                        rows.append((ordinals[g + shift], *[
                            ordinals[x + tail] for x in rows[g]]))
        self._covers = rows
        return rows

    def down_row(self, i):
        """The bitmask of the ordinals j with elem_j <= elem_i, built on
        first request and kept in a store made after the ceiling check.
        mu <= lam exactly when mu holds no addable cell of lam, (a + 1,
        b + 1) for each run of part a that starts below b rows, the trailing
        run (0, 1) adding a row: lam's levels less the _cell of each."""
        rows = self._down_bits
        if rows is None:
            self._check_bit_cache()
            rows = self._down_bits = [None] * len(self.elements)
        if rows[i] is None:
            runs = self.elements[i].runs
            low, out = (1 << self._offsets[self.elements[i].card + 1]) - 1, 0
            for (a, _), b in zip(runs + ((0, 1),), itertools.accumulate(
                    (k for _, k in runs), initial=0)):
                out |= self._cell(a + 1, b + 1) & low
            rows[i] = low ^ out
        return rows[i]

    def down_bits(self):
        """Each down_row(i) at i; the first makes the ceiling check before
        anything is allocated."""
        return [self.down_row(i) for i in range(len(self.elements))]

    def up_row(self, i):
        """The bitmask of the ordinals j >= i with elem_i <= elem_j, stored
        from its own ordinal: bit j - i, so that up_row(i) << i is
        up_mask(i), the mask over all ordinals, as every element above
        elem_i comes after it.  Built on first request and kept in a store
        made after the ceiling check, like down_row's."""
        rows = self._up_bits
        if rows is None:
            self._check_bit_cache()
            rows = self._up_bits = [None] * len(self.elements)
        if rows[i] is None:
            rows[i] = self.up_mask(i) >> i
        return rows[i]

    def up_bits(self):
        """The store of up_row, filled at every ordinal; the first row makes
        the ceiling check before anything is allocated."""
        for i in range(len(self.elements)):
            self.up_row(i)
        return self._up_bits

    def _contain(self, a, b, n):
        """The partitions of n whose b-th part is at least a, as bits of
        level n, memoized.  Block (t, m) of level n, t >= a, is (t, m) +
        rest: all of it when m >= b, and else, when t > a, the rests whose
        (b - m)-th part is at least a: they have every part < t, level r =
        n - t*m from _start(r, t, 0), so _contain(a, b - m, r) shifted."""
        mask = self._up_memo.get((a, b, n))
        if mask is None:
            if b == 1:          # every block with t >= a: one range
                mask = (1 << _start(n, a, 0)) - 1
            else:               # t + a*(b - 1) <= n, or no b-th part >= a
                starts, mask = _starts(n), 0
                for t in range(n - a * (b - 1), a - 1, -1):
                    row, top = starts[t], min(b - 1, n // t)  # m > top: all
                    mask |= (1 << row[top]) - (1 << row[n // t])
                    for m in range(top, 0, -1) if t > a else ():
                        r = n - t * m
                        if a * (b - m) <= r:
                            mask |= (self._contain(a, b - m, r)
                                     >> _start(r, t, 0)) << row[m]
            self._up_memo[a, b, n] = mask
        return mask

    def _cell(self, a, b):
        """The ordinals whose b-th part is at least a, the elements that
        hold cell (a, b), as one mask over the whole universe: _contain
        on each level from a*b up, memoized per (a, b)."""
        mask = self._cells.get((a, b))
        if mask is None:
            mask = self._cells[a, b] = sum(        # disjoint: sum is OR
                self._contain(a, b, n) << self._offsets[n]
                for n in range(a * b, self.max_card + 1))
        return mask

    def strictly_above(self, mask, stop):
        """The ordinals j < stop strictly above a member of mask, as a mask:
        the up_mask of mask's minimal members less the member, lowest
        first, each clearing the members above it."""
        cut = (1 << stop) - 1
        rest, up = mask & cut, 0
        while rest:
            bit = rest & -rest
            up |= self.up_mask(bit.bit_length() - 1) ^ bit
            rest &= ~(up | bit)
        return up & cut

    def up_mask(self, i):
        """up_bits()[i] << i without the up cache: the mask of the ordinals
        j with elem_i <= elem_j.  pi <= lam exactly when lam holds each
        corner (a, b) of pi, the last row b of each run of part a, so the
        mask is the AND of the _cell of pi's corners."""
        runs, mask = self.elements[i].runs, (1 << len(self.elements)) - 1
        for a, b in zip([a for a, _ in runs],
                        itertools.accumulate(k for _, k in runs)):
            mask &= self._cell(a, b)
        return mask


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
        tokens = inner.split(',')
        if not tokens[-1].strip():      # one trailing comma, as in (3,)
            tokens.pop()
        try:
            parts = [int(tok) for tok in tokens]
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
