'''Trace replay over any implementation: the package's one replay loop.

``run_trace`` (a heap by name) and ``differential_run`` (a heap the
caller built) both replay through ``_replay``, which optionally mirrors
every op on OracleHeap, audits, and writes one cost row per op: CostMeter
deltas plus, with --phi, the total potential before and after.
Replays are deterministic given (trace, impl).
'''

import csv

from .core import HeapError
from .exp import ExpHeap
from .fhtng import FHTNGHeap
from .lp import LPHeap
from .oracle import OracleHeap
from .potential import attach_ledger, lemma_check
from .validation import audit

IMPLS = {
    'lp': LPHeap,
    'fhtng': FHTNGHeap,
    'exp': ExpHeap,
    'oracle': OracleHeap,
}

COST_FIELDS = ('op_index', 'op_kind', 'comparisons', 'node_moves',
               'list_links', 'selection_elements', 'phi_before', 'phi_after')


def make_heap(impl):
    try:
        cls = IMPLS[impl]
    except KeyError:
        raise ValueError('unknown implementation %r (expected %s)'
                         % (impl, ', '.join(sorted(IMPLS))))
    return cls()


class RunResult:
    __slots__ = ('ok', 'fail_op', 'reason', 'ops', 'outputs', 'ledger',
                 'lemma', 'heap')

    def __init__(self):
        self.ok = True
        self.fail_op = None
        self.reason = ''
        self.ops = 0
        self.outputs = []
        self.ledger = None
        self.lemma = None
        self.heap = None

    def fail(self, op_index, reason):
        self.ok = False
        self.fail_op = op_index
        self.reason = reason

    def __repr__(self):
        if self.ok:
            return 'RunResult(pass, %d ops)' % self.ops
        return 'RunResult(FAIL at op %s: %s)' % (self.fail_op, self.reason)


def _outcome(target, handles, op):
    '''Run a delete_min or decrease_key ``op`` on ``target``; return
    ('ok', result), or the class name of the HeapError raised and None.'''
    try:
        if op[0] == 'd':
            return ('ok', target.delete_min())
        return ('ok', target.decrease_key(handles[op[1]], op[2]))
    except HeapError as exc:
        return (type(exc).__name__, None)


def _replay(trace, heap, shadow=None, audit_every=0, costs_path=None,
            collect_outputs=False):
    '''The replay loop behind run_trace and differential_run.

    With ``shadow`` set, every operation is mirrored on it and must
    have the same outcome, and find_min must agree after every op on
    heaps that have one.  Audits run every ``audit_every`` ops and
    once at the end, except on the oracle heap, which has none.
    Meter deltas are read only for the costs CSV; its potentials are
    the sums of the ledger's phi, or 0 on a heap without a ledger.
    '''
    result = RunResult()
    result.heap = heap
    outputs = result.outputs if collect_outputs else None
    find_min = getattr(heap, 'find_min', None) if shadow is not None else None
    if heap.kind == 'oracle':
        audit_every = 0
    handles = []
    mirrors = []
    meter = heap.meter
    led = getattr(heap, 'ledger', None)  # the oracle has none
    fh = writer = None
    if costs_path is not None:
        fh = open(costs_path, 'w', newline='')
        writer = csv.writer(fh)
        writer.writerow(COST_FIELDS)
    try:
        for idx, op in enumerate(trace.ops):
            if writer is not None:
                before = meter.snapshot()
                phi_before = sum(led.phi) if led is not None else 0
            tag = op[0]
            if tag == 'i':
                kind = 'insert'
                handles.append(heap.insert(op[1]))
                if shadow is not None:
                    mirrors.append(shadow.insert(op[1]))
            else:
                if tag == 'd':
                    kind = 'delete_min'
                else:
                    kind = 'decrease_key'
                    if not 0 <= op[1] < len(handles):
                        raise ValueError('op %d references unknown handle %d'
                                         % (idx, op[1]))
                got = _outcome(heap, handles, op)
                if outputs is not None and tag == 'd':
                    outputs.append(got)
                if shadow is not None:
                    want = _outcome(shadow, mirrors, op)
                    if got != want:
                        result.fail(idx, '%s %r vs oracle %r'
                                    % (kind, got, want))
                        break
            if find_min is not None and shadow.n:
                got = find_min()
                want = shadow.find_min()
                if got != want:
                    result.fail(idx, 'find_min %r vs oracle %r'
                                % (got, want))
                    break
            result.ops += 1
            if writer is not None:
                after = meter.snapshot()
                writer.writerow((idx, kind)
                                + tuple(a - b for a, b in zip(after, before))
                                + (phi_before,
                                   sum(led.phi) if led is not None else 0))
            if audit_every and (idx + 1) % audit_every == 0:
                report = audit(heap)
                if not report.passed:
                    result.fail(idx, repr(report))
                    break
    finally:
        if fh is not None:
            fh.close()
    if result.ok and audit_every:
        report = audit(heap)
        if not report.passed:
            result.fail(result.ops - 1, repr(report))
    return result


def run_trace(trace, impl='lp', audit_every=0, oracle=False, phi=False,
              costs_path=None, collect_outputs=False):
    '''Replay ``trace``; return a RunResult.

    oracle=True mirrors every operation on OracleHeap and demands
    matching outcomes; audit_every=N audits the structure every N ops;
    phi=True attaches a PotentialLedger and runs the exact budget
    checks at the end; costs_path writes the per-op CSV.
    '''
    heap = make_heap(impl)
    ledger = attach_ledger(heap) if phi and impl != 'oracle' else None
    shadow = OracleHeap() if oracle and impl != 'oracle' else None
    result = _replay(trace, heap, shadow, audit_every, costs_path,
                     collect_outputs)
    result.ledger = ledger
    if result.ok and ledger is not None:
        result.lemma = lemma_check(ledger)
        if not result.lemma.passed:
            row, bound = result.lemma.violations[0]
            result.fail(None, 'potential budget exceeded: %r > %d'
                        % (row, bound))
    return result


def differential_run(trace, heap, audit_every=0):
    '''Replay ``trace`` on ``heap`` and OracleHeap side by side.

    Every delete_min value, every find_min value (when the heap
    supports it) and every error outcome must match; with
    ``audit_every`` set, the heap is audited every that-many ops and
    at the end.  Returns a RunResult.
    '''
    return _replay(trace, heap, OracleHeap(), audit_every)


def compare_traces(trace, impls=('lp', 'fhtng', 'exp')):
    '''Replay one trace on several implementations; return
    (all_equal, {impl: outputs}).'''
    results = {impl: run_trace(trace, impl=impl, collect_outputs=True).outputs
               for impl in impls}
    outputs = list(results.values())
    return all(out == outputs[0] for out in outputs), results
