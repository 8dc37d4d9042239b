'''Benchmark of the partheap priority queues.

    python3 perfbench/run.py --workload dijkstra --seed 1 --seconds 25
    python3 perfbench/run.py --workload dijkstra --seed 1 --trace 1
    python3 perfbench/run.py --workload all --repeat 10 --seconds 25

One run replays its workload's trace through LPHeap, FHTNGHeap and
ExpHeap, checks every output against an independent reference model,
and prints the end-to-end metrics (``--trace 1``: the per-layer
metrics, see layers.py).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

``--workload all`` or ``--repeat N`` runs each workload in a process of
its own, N times with seeds seed..seed+N-1, and prints every metric's
median and quartiles.
'''

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys

import bench


def environment():
    return ('machine %s %s; python %s; nproc %d; gc thresholds %s'
            % (platform.machine(), platform.platform(),
               platform.python_version(), os.cpu_count(),
               gc.get_threshold()))


def run_one(args):
    if not os.path.isdir(os.path.join(bench.SRC, 'partheap')):
        sys.exit('perfbench: no partheap sources under %s' % bench.SRC)
    w = bench.Workload(args.workload, args.seed)
    w.set_up()
    if args.trace:
        import layers
        tally, metrics, rounds = layers.measure(w, args.seconds)
    else:
        tally, metrics, rounds = bench.measure(w, args.seconds)
    print('# ' + environment())
    print('# workload %s: %s, %d ops, seed %d, peak live %d, live at end %d;'
          ' %d rounds of %s'
          % (w.name, w.pattern, w.n_ops, w.seed, w.peak_live, w.live,
             rounds, ', '.join(bench.HEAPS)))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print('%-44s %16.6f %s' % (name, value, unit))
    print(json.dumps({
        'correct': tally.failed == 0,
        'attempted': tally.attempted,
        'failed': tally.failed,
        'metrics': {name: {'value': value, 'unit': unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))


def run_many(args):
    '''Each workload in its own process, ``repeat`` seeds each; print
    every metric's quartiles and (q3 - q1) / median.'''
    names = (list(bench.WORKLOADS) if args.workload == 'all'
             else [args.workload])
    status = 0
    for name in names:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            cmd = [sys.executable, os.path.abspath(__file__),
                   '--workload', name, '--seed', str(seed),
                   '--seconds', str(args.seconds),
                   '--trace', str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.stdout.write(proc.stdout)
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(lines[-1])
            runs.append(result)
            print('%s seed %d: correct %s, attempted %d, failed %d'
                  % (name, seed, result['correct'], result['attempted'],
                     result['failed']), flush=True)
            if not result['correct']:
                status = 1
        print('# %s: %d runs; %s' % (name, len(runs), environment()))
        print('%-44s %14s %14s %14s %8s %s'
              % ('metric', 'q1', 'median', 'q3', 'iqr/med', 'unit'))
        for metric in sorted(runs[0]['metrics']):
            values = [r['metrics'][metric]['value'] for r in runs]
            if len(values) > 1:
                q1, q2, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q2 = q3 = values[0]
            print('%-44s %14.4f %14.4f %14.4f %8.4f %s'
                  % (metric, q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0,
                     runs[0]['metrics'][metric]['unit']))
        sys.stdout.flush()
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        description='Benchmark of the partheap priority queues.')
    parser.add_argument('--workload', required=True,
                        choices=sorted(bench.WORKLOADS) + ['all'])
    parser.add_argument('--seed', type=int, default=1)
    parser.add_argument('--seconds', type=float, default=25)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--repeat', type=int, default=0,
                        help='runs per workload, one seed each')
    args = parser.parse_args(argv)
    if args.workload == 'all' or args.repeat:
        args.repeat = max(args.repeat, 1)
        return run_many(args)
    run_one(args)
    return 0


if __name__ == '__main__':
    sys.exit(main())
