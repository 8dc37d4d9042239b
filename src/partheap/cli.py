'''Command-line harness: gen | run | compare | report.

Exit code 0 means every requested check passed; failures print the
offending op index (or budget row) and return 1.
'''

import argparse
import sys

from . import report as report_mod
from .runner import IMPLS, compare_traces, run_trace
from .traces import PATTERNS, Trace, gen


def _build_parser():
    parser = argparse.ArgumentParser(
        prog='partheap',
        description='workload harness for the partition-based heaps')
    sub = parser.add_subparsers(dest='command', required=True)

    p_gen = sub.add_parser('gen', help='generate a workload trace')
    p_gen.add_argument('--pattern', required=True, choices=PATTERNS)
    p_gen.add_argument('--ops', type=int, required=True)
    p_gen.add_argument('--seed', type=int, default=0)
    p_gen.add_argument('-o', '--out', required=True)

    p_run = sub.add_parser('run', help='replay a trace on one heap')
    p_run.add_argument('trace')
    p_run.add_argument('--impl', default='lp', choices=sorted(IMPLS))
    p_run.add_argument('--audit-every', type=int, default=0)
    p_run.add_argument('--oracle', action='store_true',
                       help='mirror every op on the oracle heap')
    p_run.add_argument('--phi', action='store_true',
                       help='track potentials and check per-op budgets')
    p_run.add_argument('--costs', help='write per-op cost rows to CSV')

    p_cmp = sub.add_parser('compare',
                           help='replay one trace on several heaps')
    p_cmp.add_argument('trace')
    p_cmp.add_argument('--impls', default='lp,fhtng,exp')

    p_rep = sub.add_parser('report', help='summarize cost files')
    p_rep.add_argument('costs', nargs='+')
    p_rep.add_argument('--json', dest='json_out',
                       help='also write the summary as JSON')
    return parser


def _cmd_gen(args):
    trace = gen(args.pattern, args.ops, args.seed)
    trace.save(args.out)
    print('wrote %d ops to %s' % (len(trace), args.out))
    return 0


def _cmd_run(args):
    trace = Trace.load(args.trace)
    result = run_trace(trace, impl=args.impl, audit_every=args.audit_every,
                       oracle=args.oracle, phi=args.phi,
                       costs_path=args.costs)
    if result.lemma is not None:
        print('potential budgets: %d checked, %d below-threshold skipped, '
              '%d violations'
              % (result.lemma.checked, result.lemma.skipped,
                 len(result.lemma.violations)))
        if result.lemma.violations and result.lemma.sharp_passed:
            print('note: every violation is one of the known one-unit '
                  'budget corners (shallow pulls / merge-down beside an '
                  'undersized first slot); the sharp budgets all hold. '
                  'See README, Known limitations.')
    if not result.ok:
        where = '' if result.fail_op is None else ' at op %s' % result.fail_op
        print('FAIL%s: %s' % (where, result.reason))
        return 1
    print('ok: %d ops on %s' % (result.ops, args.impl))
    return 0


def _cmd_compare(args):
    trace = Trace.load(args.trace)
    impls = [s.strip() for s in args.impls.split(',') if s.strip()]
    if not impls:
        print('no implementation named in --impls %r' % args.impls)
        return 2
    for impl in impls:
        if impl not in IMPLS:
            print('unknown implementation %r' % impl)
            return 2
    all_equal, results = compare_traces(trace, impls)
    for impl in impls:
        outs = results[impl]
        print('%-6s %d delete_min outputs' % (impl, len(outs)))
    if not all_equal:
        first = results[impls[0]]
        for impl in impls[1:]:
            other = results[impl]
            for i, (a, b) in enumerate(zip(first, other)):
                if a != b:
                    print('FAIL: %s and %s diverge at delete_min #%d: '
                          '%r vs %r' % (impls[0], impl, i, a, b))
                    break
            else:
                if len(first) != len(other):
                    print('FAIL: %s and %s emit different counts'
                          % (impls[0], impl))
        return 1
    print('ok: all implementations agree')
    return 0


def _cmd_report(args):
    try:
        summary = report_mod.summarize(args.costs)
    except ValueError as exc:
        print('error: %s' % exc)
        return 2
    print(report_mod.format_text(summary))
    if args.json_out:
        report_mod.write_json(summary, args.json_out)
        print('wrote %s' % args.json_out)
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == 'gen':
        return _cmd_gen(args)
    if args.command == 'run':
        return _cmd_run(args)
    if args.command == 'compare':
        return _cmd_compare(args)
    return _cmd_report(args)


if __name__ == '__main__':
    sys.exit(main())
