'''Acceptance suite: one test per criterion, stated tolerances, no
calibration knobs.  Run with ``pytest tests/test_acceptance.py -s`` to
see the one-line verdict each criterion prints.

Known red (see README, "Known limitations", and the per-operation
budget notes in partheap.potential): criterion 3's contracted budgets
for the exponential heap's pull and for the banded heap's merge-down
at slot 5 are not mathematically achievable in corner cases the
workloads do reach.  Those two tests assert the contracted form
faithfully and therefore fail; the provable sharp forms are asserted
alongside and hold with zero violations.
'''

import math
import random
import time

import pytest

from partheap import (CostMeter, LinkedSet, Node, Trace, gen, make_heap,
                      run_trace, select_rank)

HEAPS = ('lp', 'fhtng', 'exp')
MAIN_PATTERNS = ('random', 'dijkstra-like', 'sawtooth', 'adversarial-dk')
ALL_PATTERNS = MAIN_PATTERNS + ('sorted', 'reverse')


def verdict(name, failures, detail=''):
    state = 'PASS' if not failures else 'FAIL'
    extra = detail if not failures else '; '.join(str(f) for f in failures[:3])
    print('ACCEPTANCE %s: %s%s' % (name, state,
                                   (' -- ' + extra) if extra else ''))
    assert not failures, failures[:5]


def test_criterion_1_differential_correctness():
    '''10 seeds x 1e5-op traces per main pattern, every heap vs the
    oracle, zero divergences, each run under 60 s.'''
    failures = []
    runs = 0
    slowest = 0.0
    for pattern in MAIN_PATTERNS:
        for seed in range(10):
            trace = gen(pattern, 100_000, seed)
            for impl in HEAPS:
                t0 = time.time()
                res = run_trace(trace, impl=impl, oracle=True)
                elapsed = time.time() - t0
                runs += 1
                slowest = max(slowest, elapsed)
                if not res.ok:
                    failures.append((impl, pattern, seed, res.reason))
                if elapsed >= 60.0:
                    failures.append((impl, pattern, seed,
                                     'run took %.1fs' % elapsed))
    verdict('1 differential', failures,
            '%d runs, slowest %.1fs' % (runs, slowest))


def test_criterion_2_invariant_audits():
    '''Full audit at every operation on 1e4-op traces, all patterns,
    all heaps, zero tolerance.'''
    failures = []
    for pattern in ALL_PATTERNS:
        trace = gen(pattern, 10_000, seed=1)
        for impl in HEAPS:
            res = run_trace(trace, impl=impl, audit_every=1)
            if not res.ok:
                failures.append((impl, pattern, res.fail_op, res.reason))
    verdict('2 invariant audits', failures,
            '%d heap/pattern runs' % (len(ALL_PATTERNS) * len(HEAPS)))


def _criterion_3(impl):
    checked = 0
    violations = []
    sharp_violations = []
    for pattern in MAIN_PATTERNS:
        for seed in range(3):
            trace = gen(pattern, 10_000, seed)
            res = run_trace(trace, impl=impl, phi=True).lemma
            checked += res.checked
            violations.extend((pattern, seed, repr(r), b)
                              for r, b in res.violations)
            sharp_violations.extend((pattern, seed, repr(r), b)
                                    for r, b in res.sharp_violations)
    # the sharp budgets must hold unconditionally; a sharp failure
    # would be an implementation bug, not a contract corner
    assert not sharp_violations, sharp_violations[:5]
    return checked, violations


def test_criterion_3a_potential_budgets_lp():
    checked, violations = _criterion_3('lp')
    verdict('3a potential budgets (lp)', violations,
            '%d rows exact' % checked)


def test_criterion_3b_potential_budgets_fhtng():
    checked, violations = _criterion_3('fhtng')
    verdict('3b potential budgets (fhtng)', violations,
            '%d rows exact' % checked)


def test_criterion_3c_potential_budgets_exp():
    checked, violations = _criterion_3('exp')
    verdict('3c potential budgets (exp)', violations,
            '%d rows exact' % checked)


def _search_cost_run(impl, bound_at):
    '''Grow a heap to 2^20 elements, asserting the costliest pivot
    search of every insert/decrease_key against the bound for the
    current floor(lg n).'''
    rng = random.Random(99)
    heap = make_heap(impl)
    handles = []
    failures = []
    bound = bound_at(1)
    bits = 1
    for step in range(1 << 20):
        heap.insert(rng.randrange(1 << 34))
        if heap.last_search_comparisons > bound:
            failures.append((impl, 'insert', heap.n,
                             heap.last_search_comparisons, bound))
            break
        if step % 64 == 0:
            handles.append(heap.insert(rng.randrange(1 << 34)))
        if step % 128 == 17 and heap.n > 4:
            heap.delete_min()  # creates and reshapes pivots
        if step % 64 == 33 and handles:
            node = rng.choice(handles)
            if node.alive:
                heap.decrease_key(node, node.key[0] - rng.randrange(1 << 20))
                if heap.last_search_comparisons > bound:
                    failures.append((impl, 'decrease_key', heap.n,
                                     heap.last_search_comparisons, bound))
                    break
        if heap.n.bit_length() != bits:
            bits = heap.n.bit_length()
            bound = bound_at(max(1, bits - 1))
    return failures


def test_criterion_4_sublogarithmic_update_cost():
    '''Pivot-search comparisons per update stay under the iterated-log
    bounds up to n = 2^20.'''
    failures = []
    failures += _search_cost_run(
        'lp', lambda lg: math.ceil(math.log2(2 * lg + 1)) + 3)
    failures += _search_cost_run(
        'exp', lambda lg: math.ceil(math.log2(1 + lg)) + 3)
    verdict('4 update search cost', failures, 'lp and exp to n=2^20')


def test_criterion_5_delete_min_scaling():
    '''Insert-n-then-drain-n touches, normalized by n lg n, may at most
    double versus the n = 2^10 baseline.'''
    failures = []
    detail = []
    for impl in HEAPS:
        base = None
        for exp_n in (10, 12, 14, 16, 18, 20):
            n = 1 << exp_n
            rng = random.Random(exp_n)
            keys = rng.sample(range(1 << 44), n)
            trace = Trace([('i', k) for k in keys] + [('d',)] * n)
            res = run_trace(trace, impl=impl)
            assert res.ok
            meter = res.heap.meter
            touches = (meter.comparisons + meter.node_moves +
                       meter.selection_elements)
            ratio = touches / (n * exp_n)
            if base is None:
                base = ratio
            elif ratio > 2 * base:
                failures.append((impl, exp_n, ratio, base))
        detail.append('%s %.2f..%.2f' % (impl, base, ratio))
    verdict('5 delete_min scaling', failures, ', '.join(detail))


def test_criterion_6_selection():
    '''Deterministic selection matches the sort oracle on 1e3 random
    instances up to size 1e4, and its touch ratio at 2^20 stays within
    2x the ratio at 2^10.'''
    rng = random.Random(5)
    failures = []
    for case in range(1000):
        size = rng.randrange(1, 10_001)
        keys = [rng.randrange(1 << 32) for _ in range(size)]
        r = rng.randrange(1, size + 1)
        s = LinkedSet()
        for k in keys:
            s.append(Node(k))
        got = select_rank(s, r)
        want = sorted(keys)[r - 1]
        if got != want:
            failures.append((case, size, r, got, want))
            break
    ratios = {}
    for exp_n in (10, 20):
        size = 1 << exp_n
        keys = [rng.randrange(1 << 40) for _ in range(size)]
        s = LinkedSet()
        for k in keys:
            s.append(Node(k))
        meter = CostMeter()
        select_rank(s, size // 2, meter)
        ratios[exp_n] = meter.selection_elements / size
    if ratios[20] > 2 * ratios[10]:
        failures.append(('ratio', ratios))
    verdict('6 selection', failures,
            '1000 oracle matches, ratio %.2f vs %.2f' %
            (ratios[10], ratios[20]))


def test_criterion_7_handle_stability():
    '''1e5 ops per heap where every insert later gets a decrease_key;
    zero dead-handle or wrong-element incidents.'''
    failures = []
    for impl in HEAPS:
        rng = random.Random(3)
        heap = make_heap(impl)
        n = 50_000
        handles = []
        expect = {}
        for _ in range(n):
            key = rng.randrange(1 << 30)
            node = heap.insert(key)
            handles.append(node)
            expect[id(node)] = (key, node.key[1])
        order = list(range(n))
        rng.shuffle(order)
        incidents = 0
        for i in order:
            node = handles[i]
            key, seq = expect[id(node)]
            if not node.alive or node.key != (key, seq):
                incidents += 1
                continue
            new_key = key - 1 - rng.randrange(1 << 10)
            heap.decrease_key(node, new_key)
            if node.key != (new_key, seq) or not node.alive:
                incidents += 1
            expect[id(node)] = (new_key, seq)
        if incidents:
            failures.append((impl, incidents))
        drained = 0
        while heap.n:
            heap.delete_min()
            drained += 1
        if drained != n or any(h.alive for h in handles):
            failures.append((impl, 'post-drain liveness'))
    verdict('7 handle stability', failures,
            '3 heaps x 100000 ops, zero incidents')
