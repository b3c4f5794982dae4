"""Command line interface.

Exit codes: 0 when everything checked passes (or the requested value was
computed), 1 when a check reports mismatches or an embedding is not
found within the bound, 2 on usage, parse, or resource errors and on an
internal error, so that 1 always means a check ran and found a failure.
"""

import argparse
import decimal
import json
import sys
import traceback

from . import formulas, harness
from .arithmetization import decode, encode
from .catalog import all_pairs
from .partitions import (ResourceLimit, enumerate_universe, parse_partition,
                         partition_count, render)


def _cmd_enumerate(args):
    universe = enumerate_universe(args.max_card)
    ok = True
    for n, level in enumerate(universe.levels):
        expected = partition_count(n)
        mark = '' if len(level) == expected else '  MISMATCH (expected %d)' % expected
        ok = ok and not mark
        print('level %2d: %d partitions%s' % (n, len(level), mark))
    print('total: %d' % len(universe.elements))
    return 0 if ok else 1


def _print_report(report, as_json):
    """Print a report as JSON or as a summary; the exit code for it."""
    if as_json:
        print(report.to_json())
    else:
        print(harness.summary_line(report.to_dict()))
        for witness in report.witnesses[:5]:
            print('  mismatch: %s' % json.dumps(witness, sort_keys=True))
        if report.boundary_count:
            print('  (%d expected boundary tuples reported separately)'
                  % report.boundary_count)
    return 0 if report.verdict == 'pass' else 1


def _cmd_check_prop(args):
    return _print_report(harness.check_proposition(args.name, args.max_card),
                         args.json)


def _cmd_check_all(args):
    document, code = harness.check_all(args.profile)
    if args.json:
        print(json.dumps(document, sort_keys=True, indent=2))
    else:
        for suite in document['suites']:
            print(harness.summary_line(suite))
        print('profile %s: %s' % (document['profile'],
                                  document['verdict'].upper()))
    return code


def _cmd_reconstruct(args):
    return _print_report(harness.reconstruction_check(args.max_card), args.json)


def _cmd_automorphisms(args):
    report = harness.automorphism_report(args.max_rank)
    code = _print_report(report, args.json)
    if not args.json:
        print('  found %d automorphism(s): %s'
              % (report.details['count'], ', '.join(report.details['kinds'])))
    return code


def _cmd_embed(args):
    with open(args.poset, encoding='utf-8') as handle:
        poset = harness.FinitePoset.parse(handle.read())
    mapping = harness.embed_poset(poset, args.max_card)
    if mapping is None:
        print('not found: no embedding with images of cardinality <= %d;'
              ' this does not refute embeddability in the unbounded order.'
              % args.max_card)
        return 1
    for element in poset.elements:
        print('%s -> %s' % (element, render(mapping[element])))
    violation = harness.verify_embedding(poset, mapping)
    if violation:
        print('not an embedding: %s' % json.dumps(violation, sort_keys=True))
    return 1 if violation else 0


def _cmd_eval(args):
    with open(args.formula, encoding='utf-8') as handle:
        formula = formulas.parse(handle.read())
    assignment = {}
    for item in args.assign or []:
        name, _, literal = item.partition('=')
        if not _:
            raise harness.UsageError('--assign expects VAR=PARTITION, got %r'
                                     % item)
        if name.strip() in assignment:
            raise harness.UsageError('--assign gives %r twice' % name.strip())
        assignment[name.strip()] = parse_partition(literal)
    free = formulas.free_vars(formula)
    stray = sorted(set(assignment) - free)
    if stray:
        raise harness.UsageError(
            '--assign gives %s, not free in the formula (free: %s)'
            % (', '.join(stray), ', '.join(sorted(free)) or 'none'))
    universe = enumerate_universe(args.max_card + args.slack)
    config = formulas.EvalConfig(args.max_card, args.slack)
    value = formulas.evaluate(formula, assignment, universe, config)
    print('class: %s' % formulas.prenex_classify(formula))
    print('value: %s' % value)
    return 0


def _cmd_encode(args):
    # since 3.10.7 str() refuses an int of over 4,300 digits; a Decimal
    # made from it is exact and prints every digit
    print(decimal.Decimal(encode(parse_partition(args.partition))))
    return 0


def _cmd_decode(args):
    print(render(decode(args.integer)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog='young-defined',
        description='Exact partition-order model with certified '
                    'first-order characterizations.')
    sub = parser.add_subparsers(dest='verb', required=True)

    p = sub.add_parser('enumerate', help='list level sizes up to a cardinality')
    p.add_argument('--max-card', type=int, required=True)
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser('check-prop', help='certify one registered predicate')
    p.add_argument('name', metavar='NAME',
                   help='one of: %s' % ', '.join(sorted(
                       pair.name for pair in all_pairs())))
    p.add_argument('--max-card', type=int, required=True)
    p.add_argument('--json', action='store_true')
    p.set_defaults(run=_cmd_check_prop)

    p = sub.add_parser('check-all', help='run every suite at a bound profile')
    p.add_argument('--profile', choices=harness.PROFILES, default='standard')
    p.add_argument('--json', action='store_true')
    p.set_defaults(run=_cmd_check_all)

    p = sub.add_parser('reconstruct',
                       help='lower-cover fingerprint injectivity by level')
    p.add_argument('--max-card', type=int, required=True)
    p.add_argument('--json', action='store_true')
    p.set_defaults(run=_cmd_reconstruct)

    p = sub.add_parser('automorphisms',
                       help='search rank-preserving diagram automorphisms')
    p.add_argument('--max-rank', type=int, default=harness.AUTOMORPHISM_RANK)
    p.add_argument('--json', action='store_true')
    p.set_defaults(run=_cmd_automorphisms)

    p = sub.add_parser('embed', help='embed a finite poset into the order')
    p.add_argument('--poset', required=True, metavar='FILE')
    p.add_argument('--max-card', type=int, required=True)
    p.set_defaults(run=_cmd_embed)

    p = sub.add_parser('eval', help='evaluate a formula file')
    p.add_argument('--formula', required=True, metavar='FILE')
    p.add_argument('--assign', action='append', metavar='VAR=PARTITION')
    p.add_argument('--max-card', type=int, required=True)
    p.add_argument('--slack', type=int, default=0)
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser('encode', help='partition to its integer code')
    p.add_argument('partition', metavar='PARTITION')
    p.set_defaults(run=_cmd_encode)

    p = sub.add_parser('decode', help='integer code to its partition')
    p.add_argument('integer', type=int, metavar='INTEGER')
    p.set_defaults(run=_cmd_decode)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, ResourceLimit, OSError) as exc:
        print('error: %s' % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print('internal error: %s: %s' % (type(exc).__name__, exc),
              file=sys.stderr)
        return 2


if __name__ == '__main__':
    sys.exit(main())
