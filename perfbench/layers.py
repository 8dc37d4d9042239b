'''The traced run: per-layer metrics (``--trace 1``).

Wrappers installed from here, around partheap's own functions, time
every call into a layer and count the work it was handed; nothing in
the program changes.  Each replay gets its own Spans, kept in memory
and written to ``out/trace-<workload>-<seed>.json`` at the end.  Spans
are wall-clock (``perf_counter_ns``); whole replays are timed in
process CPU time, like the untraced run, so ``traced_ops_per_s`` set
against ``ops_per_s`` gives the tracing overhead.

First each heap replays the trace once with counting keys (the meter
against real comparisons).  Each round then replays the trace on every
heap twice, untraced (timed, with the cyclic GC watched) and traced.
After the rounds come one replay per heap with the potential ledger
attached, and the selection layer timed in isolation on the trace's
keys: the heaps run with ``selection='det'``, so the randomized path
never runs in a replay.
'''

import gc
import json
import os
import random
import statistics
import sys
import time
import types

import bench
from bench import HEAPS, Tally, clock, replay
from model import mismatches

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), 'out')

SELECT_SIZE = 1000     # elements per set in the selection timing
SELECT_SETS = 32
PROBE_DECREASES = 200  # decrease_key calls timed when a trace has none


class Stat:
    __slots__ = ('calls', 'total_ns', 'child_ns', 'units', 'durations')

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0
        self.units = 0
        self.durations = None

    def add(self, other):
        self.calls += other.calls
        self.total_ns += other.total_ns
        self.child_ns += other.child_ns
        self.units += other.units

    def as_dict(self):
        return {'calls': self.calls, 'total_ns': self.total_ns,
                'self_ns': self.total_ns - self.child_ns,
                'units': self.units}


class Spans:
    '''Per-name call counts and times of wrapped functions.

    A span's self time is its duration minus that of the spans it
    encloses.  ``keep`` also stores every duration (for percentiles);
    ``units(args)`` counts the work handed to each call; ``before(args)``
    runs ahead of the call, outside its time.
    '''

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._undo = []

    def stat(self, name):
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def wrap(self, owner, attr, name, keep=False, units=None, before=None):
        if isinstance(owner, type):
            orig = vars(owner)[attr]
        else:
            orig = getattr(owner, attr)
        st = self.stat(name)
        if keep and st.durations is None:
            st.durations = []
        durations = st.durations
        stack = self._stack
        now = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if units is not None:
                st.units += units(args)
            if before is not None:
                before(args)
            stack.append(0)
            t0 = now()
            try:
                return orig(*args, **kwargs)
            finally:
                dt = now() - t0
                st.child_ns += stack.pop()
                if stack:
                    stack[-1] += dt
                st.calls += 1
                st.total_ns += dt
                if durations is not None:
                    durations.append(dt)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def unwrap(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


class Shape:
    '''Set count and first-set size, sampled as each delete_min starts.'''

    def __init__(self, kind):
        self.kind = kind
        self.samples = 0
        self.sets = 0
        self.first = 0

    def __call__(self, args):
        heap = args[0]
        if self.kind == 'fhtng':
            sets = len(heap._ne)
            first = heap.slot_sets[heap._ne[0]].size
        else:
            sets = heap.num_sets
            first = next((s.size for s in heap.sets if s.size), 0)
        self.samples += 1
        self.sets += sets
        self.first += first


def wrap_layers(ph, spans, impl, shape):
    '''Spans at every layer boundary the heap ``impl`` crosses.'''
    core = ph.core
    spans.wrap(core, 'pivot_search', 'core.pivot_search')
    spans.wrap(ph.fhtng, 'pivot_search', 'core.pivot_search')
    spans.wrap(ph.ExpHeap, '_find_pos', 'core.pivot_search')
    spans.wrap(core.LinkedSet, 'append', 'core.append_remove')
    spans.wrap(core.LinkedSet, 'remove', 'core.append_remove')
    spans.wrap(core.LinkedSet, 'concat', 'core.concat')
    spans.wrap(core.LinkedSet, 'min_node', 'core.min_node',
               units=lambda args: args[0].size)
    cls = ph.runner.IMPLS[impl]
    spans.wrap(cls, 'insert', impl + '.insert')
    spans.wrap(cls, 'decrease_key', impl + '.decrease_key')
    spans.wrap(cls, 'delete_min', impl + '.delete_min', keep=True,
               before=shape)
    if impl == 'lp':
        spans.wrap(cls, '_forget_pivots', 'lp.forget_pivots')
        spans.wrap(cls, '_split_first', 'lp.split_first')
    elif impl == 'fhtng':
        spans.wrap(cls, '_restore', 'fhtng.restore')
        spans.wrap(cls, '_find_violation', 'fhtng.find_violation')
        for attr in ('_overflow', '_underflow', '_merge_down', '_split_up'):
            spans.wrap(cls, attr, 'fhtng.restoration')
    else:
        spans.wrap(cls, '_push_from', 'exp.push')
        spans.wrap(cls, '_pull_into_first', 'exp.pull')


class GcWatch:
    '''Pause time and objects collected by the cyclic GC, per heap.'''

    def __init__(self):
        self.label = None
        self.pause_ns = dict.fromkeys(HEAPS, 0)
        self.collected = dict.fromkeys(HEAPS, 0)
        self._t0 = 0

    def __call__(self, phase, info):
        if self.label is None:
            return
        if phase == 'start':
            self._t0 = time.perf_counter_ns()
        else:
            self.pause_ns[self.label] += time.perf_counter_ns() - self._t0
            self.collected[self.label] += info['collected']


def structure_bytes(root, skip):
    '''Bytes of every object reachable from ``root``, classes, modules,
    functions and ``skip`` instances left out.'''
    skip = (type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType) + skip
    seen = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def bytes_per_item(w, impl):
    '''Structure bytes per element when the most elements are live.'''
    heap = w.ph.make_heap(impl)
    replay(heap, w.ops[:w.peak_at + 1])
    return structure_bytes(heap, ()) / len(heap)


def untimed_check(w, heap, outputs, tally):
    tally.add(w.n_ops,
              mismatches(outputs, w.expected) + (len(heap) != w.live))


def traced_replay(w, impl, tally, shape):
    '''One replay with every layer wrapped; return (seconds, spans).'''
    spans = Spans()
    wrap_layers(w.ph, spans, impl, shape)
    try:
        elapsed, _ = bench.timed_replay(w, impl, tally)
    finally:
        spans.unwrap()
    return elapsed, spans


def decrease_probe(w, impl, spans):
    '''For a trace without decrease_key: after an untimed replay,
    insert copies of the trace's last PROBE_DECREASES keys and lower
    each by one, timing only the decrease_key calls.'''
    heap = w.ph.make_heap(impl)
    replay(heap, w.ops)
    keys = [op[1] for op in w.ops if op[0] == 'i'][-PROBE_DECREASES:]
    handles = [heap.insert(key) for key in keys]
    spans.wrap(type(heap), 'decrease_key', impl + '.decrease_key')
    try:
        for handle, key in zip(handles, keys):
            heap.decrease_key(handle, key - 1)
    finally:
        spans.unwrap()


def ledger_replay(w, impl, tally):
    '''Replay with the potential ledger attached, its work spanned;
    then lemma_check.  Return (spans, rows, lemma seconds, lemma).'''
    ph = w.ph
    spans = Spans()
    cls = ph.runner.IMPLS[impl]
    spans.wrap(cls, 'potential_phi' if impl == 'lp' else 'potential',
               'potential.phi')
    spans.wrap(ph.potential.PotentialLedger, 'record', 'potential.record')
    gc.collect()
    heap = ph.make_heap(impl)
    ledger = ph.attach_ledger(heap)
    try:
        outputs = replay(heap, w.ops)
    finally:
        spans.unwrap()
    untimed_check(w, heap, outputs, tally)
    t0 = clock()
    lemma = ph.lemma_check(ledger)
    lemma_s = clock() - t0
    tally.add(len(ledger.rows), len(lemma.sharp_violations))
    return spans, len(ledger.rows), lemma_s, lemma


def selection_timing(w):
    '''ns per element of each selection routine on the same sets of
    trace keys, split at the larger median.'''
    ph = w.ph
    keys = [(op[1], i) for i, op in enumerate(w.ops) if op[0] == 'i']
    size = min(SELECT_SIZE, len(keys))
    inputs = [[keys[(j * size + t) % len(keys)] for t in range(size)]
              for j in range(SELECT_SETS)]
    rank = (size + 1) // 2
    rng = random.Random(w.seed)
    total = dict.fromkeys(('det', 'rand', 'mom', 'quick'), 0.0)
    for chunk in inputs:
        for variant in ('det', 'rand'):
            s = ph.LinkedSet()
            for key in chunk:
                s.append(ph.Node(key))
            t0 = clock()
            ph.split_by_rank(s, rank, None, rng if variant == 'rand' else None)
            total[variant] += clock() - t0
        arr = list(chunk)
        t0 = clock()
        ph.mom_select(arr, rank)
        total['mom'] += clock() - t0
        arr = list(chunk)
        t0 = clock()
        ph.quickselect(arr, rank, rng)
        total['quick'] += clock() - t0
    elems = size * len(inputs)
    names = {'det': 'selection.split_by_rank_ns_per_elem.det',
             'rand': 'selection.split_by_rank_ns_per_elem.rand',
             'mom': 'selection.mom_select_ns_per_elem',
             'quick': 'selection.quickselect_ns_per_elem'}
    return {names[k]: v * 1e9 / elems for k, v in total.items()}


def per_call_ns(stat):
    return stat.total_ns / stat.calls if stat.calls else 0.0


def measure(w, seconds):
    '''Per-layer metrics of one traced run; return (tally, metrics,
    rounds).'''
    tally = Tally()
    metrics = {}
    meter_metrics(w, tally, metrics)
    w.drop_counted()
    rounds = Rounds(w)
    rounds.run(seconds, tally, metrics)
    rounds.report(metrics)
    ledger_spans = ledger_metrics(w, tally, metrics)
    for name, value in selection_timing(w).items():
        metrics[name] = (value, 'ns/elem')
    metrics['traces.gen_ops_per_s'] = (w.n_ops / w.gen_s, '1/s')
    write_spans(w, rounds.spans, ledger_spans)
    return tally, metrics, rounds.count


def meter_metrics(w, tally, metrics):
    '''The cost meter per operation, and against real comparisons,
    from one direct replay per heap with counting keys.'''
    for impl in HEAPS:
        count, heap = bench.counted_replay(w, impl, tally, False)
        meter = heap.meter
        for field in ('comparisons', 'node_moves', 'list_links',
                      'selection_elements'):
            metrics['%s.meter.%s_per_op' % (impl, field)] = (
                getattr(meter, field) / w.n_ops, '1/op')
        metrics[impl + '.meter_to_real_cmp'] = (
            meter.comparisons / max(count, 1), 'ratio')


class Rounds:
    '''Untraced and traced replays of every heap, round after round,
    plus the OracleHeap replayed directly and through run_trace.'''

    def __init__(self, w):
        self.w = w
        self.count = 0
        self.untraced = {impl: [] for impl in HEAPS}
        self.traced = {impl: [] for impl in HEAPS}
        self.spans = {impl: [] for impl in HEAPS}
        self.shapes = {impl: Shape(impl) for impl in HEAPS}
        self.audits = {impl: [] for impl in HEAPS}
        self.oracle_direct = []
        self.oracle_runner = []
        self.watch = GcWatch()

    def run(self, seconds, tally, metrics):
        gc.callbacks.append(self.watch)
        try:
            deadline = time.perf_counter() + seconds
            while self.count == 0 or time.perf_counter() < deadline:
                for impl in bench.rotation(self.count):
                    self.heap_pair(impl, tally, metrics)
                self.oracle_pair(tally)
                self.count += 1
        finally:
            gc.callbacks.remove(self.watch)

    def heap_pair(self, impl, tally, metrics):
        w = self.w
        gc.collect()
        self.watch.label = impl
        elapsed, heap = bench.timed_replay(w, impl, tally)
        self.watch.label = None
        self.untraced[impl].append(elapsed)
        t0 = clock()
        report = w.ph.audit(heap)
        self.audits[impl].append(clock() - t0)
        tally.add(1, int(not report.passed))
        if self.count == 0:
            bench.check_drain(w, heap, tally)
            metrics['core.bytes_per_item.' + impl] = (
                bytes_per_item(w, impl), 'B/item')
        heap = report = None
        gc.collect()
        elapsed, spans = traced_replay(w, impl, tally, self.shapes[impl])
        self.traced[impl].append(elapsed)
        self.spans[impl].append(spans)
        if not spans.stats[impl + '.decrease_key'].calls:
            decrease_probe(w, impl, spans)

    def oracle_pair(self, tally):
        w = self.w
        gc.collect()
        heap = w.ph.make_heap('oracle')
        t0 = clock()
        outputs = replay(heap, w.ops)
        self.oracle_direct.append(clock() - t0)
        untimed_check(w, heap, outputs, tally)
        heap = outputs = None
        gc.collect()
        t0 = clock()
        res = w.ph.run_trace(w.trace, impl='oracle', collect_outputs=True)
        self.oracle_runner.append(clock() - t0)
        untimed_check(w, res.heap, [v for _, v in res.outputs], tally)

    def report(self, metrics):
        w = self.w
        per = self.count * w.n_ops
        merged = {}
        for impl in HEAPS:
            for spans in self.spans[impl]:
                for name, st in spans.stats.items():
                    merged.setdefault(name, Stat()).add(st)
        metrics['core.pivot_search_ns'] = (
            per_call_ns(merged['core.pivot_search']), 'ns')
        metrics['core.append_remove_ns'] = (
            per_call_ns(merged['core.append_remove']), 'ns')
        metrics['core.concat_ns'] = (per_call_ns(merged['core.concat']),
                                     'ns')
        scan = merged['core.min_node']
        metrics['core.min_node_ns_per_elem'] = (
            scan.total_ns / max(scan.units, 1), 'ns/elem')
        for impl in HEAPS:
            traced = bench.rate(w, self.traced[impl])
            print('# %s: untraced %.0f ops/s, traced %.0f ops/s'
                  % (impl, bench.rate(w, self.untraced[impl]), traced))
            metrics['traced_ops_per_s.' + impl] = (traced, '1/s')
            metrics['core.gc_pause_ms.' + impl] = (
                self.watch.pause_ns[impl] / self.count / 1e6, 'ms')
            metrics['core.gc_collected_per_op.' + impl] = (
                self.watch.collected[impl] / per, '1/op')
            metrics['validation.audit_ms.' + impl] = (
                statistics.median(self.audits[impl]) * 1e3, 'ms')
            for op in ('insert', 'decrease_key', 'delete_min'):
                metrics['%s.%s_us' % (impl, op)] = (
                    per_call_ns(merged[impl + '.' + op]) / 1e3, 'us')
            durations = []
            for spans in self.spans[impl]:
                durations.extend(spans.stats[impl + '.delete_min'].durations)
            metrics[impl + '.delete_min_p99_us'] = (
                statistics.quantiles(durations, n=100)[98] / 1e3, 'us')
            shape = self.shapes[impl]
            metrics[impl + '.sets_mean'] = (shape.sets / shape.samples,
                                            'count')
            metrics[impl + '.first_set_mean'] = (shape.first / shape.samples,
                                                 'count')
        for name in ('lp.forget_pivots', 'lp.split_first', 'fhtng.restore',
                     'fhtng.find_violation', 'exp.push', 'exp.pull'):
            metrics[name + '_us'] = (per_call_ns(merged[name]) / 1e3, 'us')
        metrics['fhtng.restorations_per_op'] = (
            merged['fhtng.restoration'].calls / per, '1/op')
        metrics['exp.pushes_per_op'] = (merged['exp.push'].calls / per,
                                        '1/op')
        metrics['exp.pulls_per_op'] = (merged['exp.pull'].calls / per, '1/op')
        metrics['oracle.ops_per_s'] = (bench.rate(w, self.oracle_direct),
                                       '1/s')
        metrics['runner.overhead_ns_per_op'] = (
            (sum(self.oracle_runner) - sum(self.oracle_direct)) * 1e9 / per,
            'ns')


def ledger_metrics(w, tally, metrics):
    '''Ledger cost and budget rows from one ledger replay per heap;
    return their spans.'''
    lemma_secs = 0.0
    lemma_rows = 0
    ledger_spans = {}
    for impl in HEAPS:
        spans, rows, secs, lemma = ledger_replay(w, impl, tally)
        ledger_spans[impl] = spans
        lemma_secs += secs
        lemma_rows += rows
        metrics['potential.ledger_us_per_op.' + impl] = (
            sum(st.total_ns for st in spans.stats.values()) / w.n_ops / 1e3,
            'us')
        metrics['potential.primary_violations.' + impl] = (
            len(lemma.violations), 'count')
    metrics['potential.lemma_check_us_per_row'] = (
        lemma_secs * 1e6 / lemma_rows, 'us')
    return ledger_spans


def write_spans(w, spans, ledger_spans):
    doc = {'workload': w.name, 'seed': w.seed, 'ops': w.n_ops,
           'replays': {impl: [{name: st.as_dict()
                               for name, st in sp.stats.items()}
                              for sp in spans[impl]] for impl in HEAPS},
           'ledger': {impl: {name: st.as_dict()
                             for name, st in sp.stats.items()}
                      for impl, sp in ledger_spans.items()}}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, 'trace-%s-%d.json' % (w.name, w.seed))
    with open(path, 'w') as fh:
        json.dump(doc, fh, indent=1)
