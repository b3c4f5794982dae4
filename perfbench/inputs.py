"""Workload inputs, made from the seed without importing the program.

check-standard and pair-sweeps are fixed by their bounds and ignore the
seed.  wide-eval draws one constant partition of each cardinality 1 to 8
and writes the formula texts the program is given.
"""

import random

WIDE_CORPUS = ('triviality', 'totality', 'empty')

UPPER_COVER = ('const c = %s;\n'
               'c <= x & c != x & forall z (c <= z & z <= x -> z = c | z = x)\n')
LOWER_COVER = ('const c = %s;\n'
               'x <= c & x != c & forall z (x <= z & z <= c -> z = x | z = c)\n')


def random_partition(rng, card):
    """Canonical text (e.g. 2[3]+[1]) of a partition of card drawn from rng."""
    parts = []
    left = card
    while left:
        part = rng.randint(1, left)
        parts.append(part)
        left -= part
    runs = {}
    for part in parts:
        runs[part] = runs.get(part, 0) + 1
    return '+'.join('[%d]' % n if m == 1 else '%d[%d]' % (m, n)
                    for n, m in sorted(runs.items(), reverse=True))


def wide_eval_queries(rng):
    """Three corpus files, then an upper-cover and a lower-cover formula
    for one seeded constant of each cardinality 1 to 8."""
    queries = [{'name': 'corpus-%s' % name, 'corpus': name}
               for name in WIDE_CORPUS]
    for card in range(1, 9):
        constant = random_partition(rng, card)
        queries.append({'name': 'upper-cover', 'constant': constant,
                        'text': UPPER_COVER % constant})
        queries.append({'name': 'lower-cover', 'constant': constant,
                        'text': LOWER_COVER % constant})
    return queries


def make_inputs(workload, seed):
    """The JSON-ready inputs handed to every worker of one run."""
    if workload == 'wide-eval':
        return {'queries': wide_eval_queries(random.Random(seed))}
    return {}
