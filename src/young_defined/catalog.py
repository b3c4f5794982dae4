"""The catalog of definable predicates over Young's lattice.

Every entry is a CharacterizationPair: a structural oracle that decides
the predicate directly from run-length data, and an independently coded
characterization built from order comparisons against rectangles,
staircases and witness partitions.  The harness certifies that the two
agree on bounded sweeps; nothing in this module assumes they do.

Characterizations that quantify over "all partitions" are evaluated by
support reduction: the quantifier's precedent pins down the finitely
many candidate witnesses (often exactly one), which are constructed in
place instead of swept from an enumerated universe.  Literal sweep
twins (``*_sweep``) implement the same conditions by brute force over a
Universe and exist so the tests can certify the reduction itself at
small bounds.
"""

import collections
import functools
import itertools

from .partitions import (EMPTY, Partition, PartitionError, ResourceLimit,
                         _lower_cover_runs, from_parts, leq,
                         factorial_partition)


class DomainError(ValueError):
    """An argument tuple falls outside a predicate's declared domain."""


@functools.lru_cache(maxsize=None, typed=True)
def rectangle(mult, size):
    """The partition with `mult` parts of size `size`; either 0 gives the empty one.

    Memoized, since partitions are immutable and the sweeps ask for the
    same few hundred rectangles over and over (both sides stay within
    maxCard + 2, so the cache stays small); typed, so 2.0 is never
    served the cached answer for 2 and is still refused.
    """
    if type(mult) is not int or type(size) is not int or min(mult, size) < 0:
        raise PartitionError('rectangle sides must be integers >= 0, got (%r, %r)' % (mult, size))
    if mult == 0 or size == 0:
        return EMPTY
    return Partition(((size, mult),))


def total(n):
    """The total partition [n] (empty when n = 0)."""
    return rectangle(1, n)


# ---------------------------------------------------------------------------
# simple shape predicates

# the probes of char_total and char_trivial: 2[1] and [2]
_TWO_ROWS = Partition(((1, 2),))
_ONE_PART_OF_TWO = Partition(((2, 1),))


def is_total(pi):
    """At most one part."""
    return pi.length <= 1


def char_total(pi):
    """Total iff the two-rows partition does not fit inside pi."""
    return not leq(_TWO_ROWS, pi)


def is_trivial(pi):
    """Every part has size 1."""
    return pi.largest <= 1


def char_trivial(pi):
    """Trivial iff the single part of size two does not fit inside pi."""
    return not leq(_ONE_PART_OF_TWO, pi)


def is_rectangular(pi):
    """All parts share one size (the empty partition counts)."""
    return len(pi.runs) <= 1


def char_rectangular(pi):
    """Rectangular iff pi has at most one lower cover, counted by their
    canonical run tuples."""
    return len(set(_lower_cover_runs(pi.runs))) <= 1


def has_distinct_parts(pi):
    """No part size is repeated."""
    return all(m == 1 for _, m in pi.runs)


def char_distinct_parts(pi):
    """Distinct parts via maximal rectangles: whenever s[p] fits maximally
    in the p direction (s[p] <= pi but s[p+1] is not), one more row must
    not fit either.

    Quantified rectangles are built in place; s runs below the length of
    pi and p up to its largest part.
    """
    for s in range(1, pi.length):
        for p in range(1, pi.largest + 1):
            if (leq(rectangle(s, p), pi)
                    and not leq(rectangle(s, p + 1), pi)
                    and leq(rectangle(s + 1, p), pi)):
                return False
    return True


# ---------------------------------------------------------------------------
# argument kinds: the domains Lemma 3.1 makes definable

# The partitions one predicate argument ranges over: a name for messages,
# a membership test, and members(universe) in sweep order.
Kind = collections.namedtuple('Kind', 'name test members')

ANY = Kind('any', lambda pi: True, lambda universe: universe.elements)
TOTAL = Kind('total', is_total, lambda universe: [
    total(n) for n in range(universe.max_card + 1)])
NONEMPTY_TOTAL = Kind('nonempty total', lambda pi: pi.length == 1,
                      lambda universe: TOTAL.members(universe)[1:])
TRIVIAL = Kind('trivial', is_trivial, lambda universe: [
    rectangle(m, 1) for m in range(universe.max_card + 1)])
NONEMPTY_TRIVIAL = Kind('nonempty trivial', lambda pi: pi.largest == 1,
                        lambda universe: TRIVIAL.members(universe)[1:])


def _on(*kinds):
    """Declare a predicate's argument kinds; a direct (positional) call
    refuses an argument outside its kind with DomainError."""
    def declare(fn):
        names = fn.__code__.co_varnames

        @functools.wraps(fn)
        def checked(*args):
            for name, kind, arg in zip(names, kinds, args):
                if not kind.test(arg):
                    raise DomainError('%s: %s must be a %s partition, got %r'
                                      % (fn.__name__, name, kind.name, arg))
            return fn(*args)
        checked.kinds = kinds
        return checked
    return declare


def _kinds(fn):
    """The kinds fn declares; undeclared, any partition in each argument."""
    return getattr(fn, 'kinds', (ANY,) * fn.__code__.co_argcount)


# ---------------------------------------------------------------------------
# length / largest part helpers

@_on(TRIVIAL, ANY)
def length_equals(rho, pi):
    """Oracle: pi has exactly as many parts as the trivial rho = m[1]."""
    return pi.length == rho.card


@_on(TRIVIAL, ANY)
def char_length_equals(rho, pi):
    """l(pi) = m iff m[1] fits inside pi but (m+1)[1] does not."""
    m = rho.card
    return leq(rectangle(m, 1), pi) and not leq(rectangle(m + 1, 1), pi)


@_on(NONEMPTY_TOTAL, ANY)
def bounded_part(rho, pi):
    """Oracle: every part of pi has at most |rho| boxes (rho = [n])."""
    return pi.largest <= rho.card


@_on(NONEMPTY_TOTAL, ANY)
def char_bounded_part(rho, pi):
    """All parts have size <= n iff [n+1] does not fit inside pi."""
    return not leq(total(rho.card + 1), pi)


def max_rectangular_below(n, pi):
    """The largest m with m[n] <= pi: total multiplicity of parts >= n."""
    if type(n) is not int or n < 1:
        raise DomainError('need an integer n >= 1, got %r' % (n,))
    rows = 0
    for size, m in pi.runs:
        if size < n:
            break
        rows += m
    return rows


@_on(NONEMPTY_TOTAL, NONEMPTY_TRIVIAL, ANY)
def rectangular_triple(rho, sigma, pi):
    """Oracle: pi is the rectangle with |sigma| parts of size |rho|."""
    return pi == rectangle(sigma.card, rho.card)


@_on(NONEMPTY_TOTAL, NONEMPTY_TRIVIAL, ANY)
def char_rectangular_triple(rho, sigma, pi):
    """pi is |sigma|[|rho|] iff b(pi)=|rho|, l(pi)=|sigma|, pi rectangular."""
    return (pi.largest == rho.card and pi.length == sigma.card
            and char_rectangular(pi))


# ---------------------------------------------------------------------------
# part membership (two variants: the two polarities of the final relation)

@_on(NONEMPTY_TOTAL, ANY)
def is_part_of(rho, pi):
    """Oracle: pi has a part of size |rho| (rho = [n], nonempty total)."""
    return pi.has_part(rho.card)


@_on(NONEMPTY_TOTAL, ANY)
def char_part_of_a(rho, pi):
    """Membership variant A: ... whenever r[n] <= pi but (r+1)[n] is not,
    then r[n+1] <= pi."""
    return _char_part_of(rho, pi, final_fits=True)


@_on(NONEMPTY_TOTAL, ANY)
def char_part_of_b(rho, pi):
    """Membership variant B: ... then r[n+1] is NOT <= pi."""
    return _char_part_of(rho, pi, final_fits=False)


def _char_part_of(rho, pi, final_fits):
    n = rho.card
    if not leq(rho, pi):
        return False
    for r in range(1, pi.length + 1):
        if leq(rectangle(r, n), pi) and not leq(rectangle(r + 1, n), pi):
            if leq(rectangle(r, n + 1), pi) != final_fits:
                return False
    return True


# ---------------------------------------------------------------------------
# factorials

@_on(TOTAL, ANY)
def is_factorial(rho, pi):
    """Oracle: pi is the staircase with largest part |rho|."""
    return pi == factorial_partition(rho.card)


@_on(TOTAL, ANY)
def char_factorial(rho, pi):
    """pi = [n]! iff b(pi) = b(rho) = n, every [r] <= [n] is a part of pi,
    and all parts of pi are distinct."""
    n = rho.card
    if pi.largest != n or rho.largest != n:
        return False
    for r in range(1, n + 1):
        if not pi.has_part(r):
            return False
    return has_distinct_parts(pi)


def factorial_sum(pi):
    """The multiset union of m_i copies of [n_i]! over the runs of pi.

    Its length equals the cardinality of pi, which is what makes it the
    minimal witness in the height comparison below.
    """
    counts = {}
    for n, m in pi.runs:
        for size in range(1, n + 1):
            counts[size] = counts.get(size, 0) + m
    return Partition(sorted(counts.items(), reverse=True))


@_on(TOTAL, TRIVIAL)
def same_height_total_trivial(rho, pi):
    """Oracle: the total rho and the trivial pi have equal cardinality."""
    return rho.card == pi.card


@_on(TOTAL, TRIVIAL)
def char_same_height_total_trivial(rho, pi):
    """rho = [r] and pi = m[1] sit at the same height iff the staircase
    [r]! has exactly m parts."""
    return factorial_partition(rho.card).length == pi.card


# ---------------------------------------------------------------------------
# addition over totals

@_on(TOTAL, TOTAL, TOTAL)
def add_triple(rho, sigma, pi):
    """Oracle: |rho| + |sigma| = |pi| over total partitions."""
    return rho.card + sigma.card == pi.card


def _add_witness(rho, pi):
    """The unique distinct-part partition whose parts are exactly the
    totals strictly above rho and at most pi: [a+1] + ... + [c]."""
    return from_parts(range(rho.card + 1, pi.card + 1))


@_on(TOTAL, TOTAL, TOTAL)
def char_add(rho, sigma, pi):
    """Addition: totals, both summands strictly below pi, and the witness
    filling (|rho|, |pi|] has length exactly |sigma|.

    The inner quantifier is support-reduced: requiring distinct parts
    whose sizes are exactly the totals in (rho, pi] pins the witness
    uniquely, so it is constructed rather than swept.
    """
    return _char_add(rho, sigma, pi, exact=True)


@_on(TOTAL, TOTAL, TOTAL)
def char_add_geq(rho, sigma, pi):
    """Addition with the weaker length conclusion (witness length at
    least |sigma|); kept for comparison, certifies a superset."""
    return _char_add(rho, sigma, pi, exact=False)


def _char_add(rho, sigma, pi, exact):
    if not (rho != pi and leq(rho, pi) and sigma != pi and leq(sigma, pi)):
        return False
    witness = _add_witness(rho, pi)
    if exact:
        return witness.length == sigma.card
    return witness.length >= sigma.card


@_on(TOTAL, TOTAL, TOTAL)
def char_add_sweep(rho, sigma, pi, universe):
    """Literal sweep form of the addition characterization.

    Ranges the witness candidate and the membership probe over the whole
    universe; raises when the universe cannot contain the witness.
    """
    need = sum(range(rho.card + 1, pi.card + 1))
    if universe.max_card < need:
        raise ResourceLimit('need maxCard >= %d for the witness' % need)
    if not (rho != pi and leq(rho, pi) and sigma != pi and leq(sigma, pi)):
        return False
    for beta in universe:
        if not has_distinct_parts(beta):
            continue
        good = True
        for alpha in universe:
            if not is_total(alpha) or alpha.card == 0:
                continue
            in_range = rho != alpha and leq(rho, alpha) and leq(alpha, pi)
            if beta.has_part(alpha.card) != in_range:
                good = False
                break
        if not good:
            continue
        if beta.length != sigma.card:
            return False
    return True


# ---------------------------------------------------------------------------
# part frequency

@_on(NONEMPTY_TOTAL, NONEMPTY_TOTAL, ANY)
def part_frequency(rho, sigma, pi):
    """Oracle: the part |rho| appears in pi exactly |sigma| times."""
    return pi.multiplicity(rho.card) == sigma.card


@_on(NONEMPTY_TOTAL, NONEMPTY_TOTAL, ANY)
def char_frequency(rho, sigma, pi):
    """Frequency via maximal rectangles, with the gap to the next larger
    part pinned exactly (the tightest probe attains equality)."""
    return _char_frequency(rho, sigma, pi, exact=True)


@_on(NONEMPTY_TOTAL, NONEMPTY_TOTAL, ANY)
def char_frequency_leq(rho, sigma, pi):
    """Frequency with the literal upper-bound conclusion only (n <= m-t);
    kept for comparison, certifies a superset."""
    return _char_frequency(rho, sigma, pi, exact=False)


def _char_frequency(rho, sigma, pi, exact):
    r, n = rho.card, sigma.card
    # one pass over pi's runs, largest first, keeping their running total:
    # each a in above is max_rectangular_below(size, pi) for a part size
    # above r, and m, the total through the run of size r, is that of r
    above = []
    rows = 0
    m = None
    for size, mult in pi.runs:
        if size < r:
            break
        rows += mult
        if size == r:
            m = rows
            break
        above.append(rows)
    if m is None:                               # (1): no part r
        return False
    if not above:                               # (2): r is the largest part
        return n == m
    gaps = [m - a for a in above]               # (3): probe every larger part
    if any(n > gap for gap in gaps):
        return False
    if exact and not any(n == gap for gap in gaps):
        return False
    return True


# ---------------------------------------------------------------------------
# height comparison over one total argument

@_on(TOTAL, ANY)
def height_geq(rho, pi):
    """Oracle: |pi| >= |rho| for total rho."""
    return pi.card >= rho.card


def _min_constrained_length(pi):
    """The least length among partitions satisfying the forced-multiplicity
    conditions of pi: part [r] must appear at least max_rectangular_below(r, pi)
    times, so the minimum is the sum of those bounds."""
    return sum(max_rectangular_below(r, pi) for r in range(1, pi.largest + 1))


@_on(TOTAL, ANY)
def char_height_geq(rho, pi):
    """|pi| >= |rho| iff every partition satisfying the forced-multiplicity
    conditions has length >= |rho|.

    Support-reduced: the multiplicity requirements are disjoint (each
    part of a satisfying partition counts toward exactly one size), so
    the least satisfying length is their sum, attained by factorial_sum;
    the universal quantifier is decided exactly without enumeration.
    """
    return _min_constrained_length(pi) >= rho.card


def satisfies_height_conditions(sigma, pi):
    """Does sigma satisfy the forced-multiplicity conditions induced by pi?

    For every r and maximal m with m[r] <= pi, the part [r] must appear
    in sigma at least m times.
    """
    for r in range(1, pi.largest + 1):
        if sigma.multiplicity(r) < max_rectangular_below(r, pi):
            return False
    return True


@_on(TOTAL, ANY)
def char_height_geq_sweep(rho, pi, universe):
    """Literal sweep form: every universe element satisfying the conditions
    has length >= |rho|; needs the universe to reach the minimal witness."""
    need = factorial_sum(pi).card
    if universe.max_card < need:
        raise ResourceLimit('need maxCard >= %d for the witness' % need)
    for sigma in universe:
        if satisfies_height_conditions(sigma, pi) and sigma.length < rho.card:
            return False
    return True


@_on(TOTAL, ANY)
def height_eq(rho, pi):
    """Oracle: |pi| = |rho| for total rho."""
    return pi.card == rho.card


@_on(TOTAL, ANY)
def char_height_eq(rho, pi):
    """|pi| = |rho| iff |pi| >= |rho| but not |pi| >= |rho| + 1."""
    return (char_height_geq(rho, pi)
            and not char_height_geq(total(rho.card + 1), pi))


# ---------------------------------------------------------------------------
# multiplication over totals

@_on(TOTAL, TOTAL, TOTAL)
def mult_triple(rho, sigma, pi):
    """Oracle: |rho| * |sigma| = |pi| over total partitions."""
    return rho.card * sigma.card == pi.card


@_on(TOTAL, TOTAL, TOTAL)
def char_mult(rho, sigma, pi):
    """Multiplication: |pi| equals the height of the rectangle with |rho|
    parts of size |sigma|, expressed through the height-equality
    characterization (degenerate rectangles are the empty partition)."""
    return char_height_eq(pi, rectangle(rho.card, sigma.card))


# ---------------------------------------------------------------------------
# the registry

class CharacterizationPair:
    """A named predicate with its oracle and characterization.

    Both declare the same argument kinds, and the pair is swept over the
    product of their members, last argument fastest; oracle and
    characterization are kept undecorated, since a swept tuple is in
    kind.  bound is the cardinality the standard profile sweeps it to.
    boundary(args) returns a reason string when a tuple is an expected
    boundary case whose mismatch is reported separately instead of
    counted as a failure.  Informational pairs record alternative
    readings; their failures do not gate a run.
    """

    def __init__(self, name, oracle, characterization, bound,
                 boundary=None, informational=False, note=''):
        self.name = name
        self.kinds = _kinds(oracle)
        if _kinds(characterization) != self.kinds:
            raise ValueError(name + ': the two functions declare other kinds')
        self.oracle = getattr(oracle, '__wrapped__', oracle)
        self.characterization = getattr(characterization, '__wrapped__',
                                        characterization)
        self.bound = bound
        self.boundary = boundary
        self.informational = informational
        self.note = note

    def domain(self, universe):
        """The argument tuples over universe, in a deterministic order;
        each list is checked once, as the undecorated functions are not."""
        lists = [kind.members(universe) for kind in self.kinds]
        for kind, members in zip(self.kinds, lists):
            if not all(map(kind.test, members)):
                raise DomainError('%s: a member of the %s kind fails its test'
                                  % (self.name, kind.name))
        return itertools.product(*lists)

    def __repr__(self):
        return 'CharacterizationPair(%r)' % self.name


def _identity_triple(args):
    rho, sigma, pi = args
    if rho.card == 0 or sigma.card == 0:
        return ('identity triple: the strict-bound condition excludes the '
                'case where a summand equals the sum')
    return None


REGISTRY = {}


def _register(pair):
    REGISTRY[pair.name] = pair
    return pair


_register(CharacterizationPair(
    'lemma-3.1-total', is_total, char_total, bound=25,
    note='total iff the two-rows partition does not fit'))

_register(CharacterizationPair(
    'lemma-3.1-trivial', is_trivial, char_trivial, bound=25,
    note='trivial iff the single part of size two does not fit'))

_register(CharacterizationPair(
    'lemma-3.2-rectangular', is_rectangular, char_rectangular, bound=25,
    note='rectangular iff at most one lower cover'))

_register(CharacterizationPair(
    'lemma-3.4-length', length_equals, char_length_equals, bound=20,
    note='length read off against trivial rectangles'))

_register(CharacterizationPair(
    'lemma-3.4-bounded-part', bounded_part, char_bounded_part, bound=20,
    note='part sizes bounded iff the next total does not fit'))

_register(CharacterizationPair(
    'lemma-3.4-rectangular-triple', rectangular_triple,
    char_rectangular_triple, bound=12,
    note='a rectangle is its largest part, its length, and rectangularity'))

_register(CharacterizationPair(
    'prop-3.5-distinct', has_distinct_parts, char_distinct_parts, bound=20,
    note='distinctness via maximal rectangles'))

_register(CharacterizationPair(
    'prop-3.6-part-of-a', is_part_of, char_part_of_a, bound=18,
    informational=True,
    note='variant A: final relation read as "fits"'))

_register(CharacterizationPair(
    'prop-3.6-part-of-b', is_part_of, char_part_of_b, bound=18,
    note='variant B: final relation read as "does not fit"'))

_register(CharacterizationPair(
    'prop-3.7-factorial', is_factorial, char_factorial, bound=15,
    note='staircase iff all smaller totals appear, distinctly'))

_register(CharacterizationPair(
    'lemma-3.8-same-height', same_height_total_trivial,
    char_same_height_total_trivial, bound=15,
    note='equal height read off the length of the staircase witness'))

_register(CharacterizationPair(
    'prop-3.9-add', add_triple, char_add, bound=12, boundary=_identity_triple,
    note='witness length pinned exactly; see the -geq variant for the '
         'weaker reading'))

_register(CharacterizationPair(
    'prop-3.9-add-geq', add_triple, char_add_geq, bound=12,
    boundary=_identity_triple, informational=True,
    note='lower-bound reading: accepts every triple with |rho|+|sigma| <= |pi|'))

_register(CharacterizationPair(
    'prop-3.10-frequency', part_frequency, char_frequency, bound=15,
    note='gap to the next larger part pinned exactly; see the -leq variant '
         'for the weaker reading'))

_register(CharacterizationPair(
    'prop-3.10-frequency-leq', part_frequency, char_frequency_leq, bound=15,
    informational=True,
    note='upper-bound reading: accepts frequencies below the true one'))

_register(CharacterizationPair(
    'prop-3.11-height-geq', height_geq, char_height_geq, bound=12,
    note='support-reduced universal quantifier over constrained partitions'))

_register(CharacterizationPair(
    'prop-3.12-height-eq', height_eq, char_height_eq, bound=12,
    note='sandwich of two height comparisons'))

_register(CharacterizationPair(
    'prop-3.13-mult', mult_triple, char_mult, bound=20,
    note='height equality against the rectangle built from the factors'))


def get_pair(name):
    """Look up a registered pair; raises KeyError with the known names."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError('unknown pair %r; known: %s'
                       % (name, ', '.join(sorted(REGISTRY))))


def all_pairs():
    """All registered pairs in registration order."""
    return list(REGISTRY.values())
