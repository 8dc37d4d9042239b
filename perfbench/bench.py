'''Workloads, replays and the end-to-end metrics.

The program is imported from ``src/`` next to this directory and driven
only through its public functions, from one process and one thread.
Every heap runs with its default ``selection='det'``.
'''

import gc
import importlib
import os
import resource
import statistics
import sys
import time

from model import CountingKeys, mismatches, reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, 'src')

HEAPS = ('lp', 'fhtng', 'exp')

# name -> (traces.gen pattern, trace length).  Why each workload: see
# README.md.  Sizes keep one heap's replay near one second.
WORKLOADS = {
    'dijkstra': ('dijkstra-like', 150_000),
    'decrease-storm': ('adversarial-dk', 150_000),
    'checked': ('sawtooth', 40_000),
}
AUDIT_EVERY = 1000   # checked: full structural audit every 1000 ops
SETUPS = 5           # set-ups per run; setup_s is their median

# Whole replays are timed in process CPU time: the benchmark is one
# thread, and CPU time leaves out time the machine gives to others.
clock = time.process_time


def load_partheap():
    '''Import partheap afresh from the checkout's src/ directory.'''
    for name in [m for m in sys.modules
                 if m == 'partheap' or m.startswith('partheap.')]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    ph = importlib.import_module('partheap')
    if not os.path.abspath(ph.__file__).startswith(SRC + os.sep):
        raise ImportError('partheap imported from %s, not from %s'
                          % (ph.__file__, SRC))
    return ph


class Workload:
    '''One workload's program, trace and expected results.'''

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.pattern, self.n_ops = WORKLOADS[name]
        self.checked = name == 'checked'

    def set_up(self):
        '''Import the program, generate the trace and wrap its keys;
        time the three together SETUPS times and keep the median.'''
        load_partheap()   # writes bytecode once, outside the timing
        times = []
        gen_times = []
        for _ in range(SETUPS):
            gc.collect()
            t0 = clock()
            ph = load_partheap()
            t1 = clock()
            ops = ph.gen(self.pattern, self.n_ops, self.seed).ops
            t2 = clock()
            keys = CountingKeys()
            counted = keys.wrap_ops(ops)
            times.append(clock() - t0)
            gen_times.append(t2 - t1)
        self.setup_s = statistics.median(times)
        self.gen_s = statistics.median(gen_times)
        self.ph = ph
        self.ops = ops
        self.trace = ph.Trace(ops)
        self.keys = keys
        self.counted = counted
        self.counted_trace = ph.Trace(counted)
        self.expected, self.remaining = reference(ops)
        self.live = len(self.remaining)
        self.peak_live, self.peak_at = peak_live(ops)

    def drop_counted(self):
        '''Free the wrapped keys once counted, so that the collector
        does not walk them during the timed replays.'''
        self.counted = self.counted_trace = None

    def run_checked(self, impl, trace):
        '''Replay through run_trace with the oracle, audits and the
        potential ledger on; return (result, outputs, failed checks).

        The pass test is fail_op (oracle agreement and audits) plus the
        sharp budgets; RunResult.ok also demands the primary budgets,
        which ExpHeap misses on every trace (README, Known limitations).
        '''
        res = self.ph.run_trace(trace, impl=impl, oracle=True,
                                audit_every=AUDIT_EVERY, phi=True,
                                collect_outputs=True)
        bad = int(res.fail_op is not None)
        bad += 1 if res.lemma is None else len(res.lemma.sharp_violations)
        return res, [value for _, value in res.outputs], bad


def peak_live(ops):
    '''Most elements live at once, and the index of the op that first
    reaches that many.'''
    live = peak = at = 0
    for i, op in enumerate(ops):
        if op[0] == 'i':
            live += 1
            if live > peak:
                peak, at = live, i
        elif op[0] == 'd':
            live -= 1
    return peak, at


def replay(heap, ops):
    '''Drive ``heap`` through ``ops`` by its public API; return the
    delete_min outputs.'''
    insert = heap.insert
    delete_min = heap.delete_min
    decrease_key = heap.decrease_key
    handles = []
    outputs = []
    for op in ops:
        tag = op[0]
        if tag == 'i':
            handles.append(insert(op[1]))
        elif tag == 'd':
            outputs.append(delete_min())
        else:
            decrease_key(handles[op[1]], op[2])
    return outputs


class Tally:
    '''Operations attempted and failed over a run.'''

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted, failed):
        self.attempted += attempted
        self.failed += min(failed, attempted)


def timed_replay(w, impl, tally):
    '''Replay the trace once on a new ``impl`` heap, timed, and check
    its outputs; return (seconds, heap).

    The caller drops every earlier heap and runs gc.collect() first,
    so that nothing of an earlier measurement is alive.
    '''
    if w.checked:
        t0 = clock()
        res, outputs, bad = w.run_checked(impl, w.trace)
        elapsed = clock() - t0
        heap = res.heap
    else:
        heap = w.ph.make_heap(impl)
        t0 = clock()
        outputs = replay(heap, w.ops)
        elapsed = clock() - t0
        bad = 0
    bad += mismatches(outputs, w.expected) + (len(heap) != w.live)
    tally.add(w.n_ops, bad)
    return elapsed, heap


def check_drain(w, heap, tally):
    '''delete_min until empty: the reference's remaining keys must come
    out in non-decreasing order.'''
    out = []
    while len(heap):
        out.append(heap.delete_min())
    tally.add(max(len(w.remaining), len(out)), mismatches(out, w.remaining))


def counted_replay(w, impl, tally, through_runner):
    '''Replay with counting keys, through run_trace with its checks or
    directly; return (ordering comparisons, heap).'''
    gc.collect()
    w.keys.count = 0
    if through_runner:
        res, outputs, bad = w.run_checked(impl, w.counted_trace)
        heap = res.heap
    else:
        heap = w.ph.make_heap(impl)
        outputs = replay(heap, w.counted)
        bad = 0
    count = w.keys.count
    outputs = [key.v for key in outputs]
    bad += mismatches(outputs, w.expected) + (len(heap) != w.live)
    tally.add(w.n_ops, bad)
    return count, heap


def rate(w, times):
    '''Trace operations per second over all timed replays.

    Total work over total time, not the median replay: the machine's
    speed drifts in phases of many seconds, and the median of a few
    replays jumps between phases where the total does not.
    '''
    return w.n_ops * len(times) / sum(times)


def rotation(round_no):
    '''Heap order for a round; it rotates so drift hits all alike.'''
    k = round_no % len(HEAPS)
    return HEAPS[k:] + HEAPS[:k]


def measure(w, seconds):
    '''End-to-end metrics: one counting pass per heap, then timed
    rounds of all three heaps until ``seconds`` have passed.'''
    tally = Tally()
    metrics = {}
    for impl in HEAPS:
        count, heap = counted_replay(w, impl, tally, w.checked)
        metrics['key_cmp_per_op.' + impl] = (count / w.n_ops, 'cmp/op')
    heap = None
    w.drop_counted()
    times = {impl: [] for impl in HEAPS}
    deadline = time.perf_counter() + seconds
    round_no = 0
    while round_no == 0 or time.perf_counter() < deadline:
        for impl in rotation(round_no):
            gc.collect()
            elapsed, heap = timed_replay(w, impl, tally)
            times[impl].append(elapsed)
            if round_no == 0:
                check_drain(w, heap, tally)
            heap = None
        round_no += 1
    for impl in HEAPS:
        metrics['ops_per_s.' + impl] = (rate(w, times[impl]), '1/s')
    metrics['setup_s'] = (w.setup_s, 's')
    metrics['peak_rss_mib'] = (peak_rss_mib(), 'MiB')
    return tally, metrics, round_no


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
