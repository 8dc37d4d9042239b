'''Oracle, differential runner, auditors, and budget checks.'''

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (Boom, drain, make_exp_state, make_fhtng_state,
                      make_lp_state, raising_keys, split_rule)
from partheap import (DeadHandleError, EmptyHeapError, ExpHeap,
                      FHTNGHeap, ForeignHandleError, KeyOrderError, LPHeap,
                      OracleHeap, PATTERNS, PotentialLedger, Trace,
                      attach_ledger, audit, differential_run, gen,
                      lemma_check, run_trace)
from partheap.potential import PotRow, current_phi


def live_keys(trace):
    '''The user keys a valid trace leaves live, sorted: each delete_min
    takes the smallest (key, handle) pair.'''
    keys = []
    live = set()
    for op in trace.ops:
        if op[0] == 'i':
            live.add(len(keys))
            keys.append(op[1])
        elif op[0] == 'd':
            live.remove(min(live, key=lambda h: (keys[h], h)))
        else:
            keys[op[1]] = op[2]
    return sorted(keys[h] for h in live)


class TestOracleHeap:

    def test_insert_drain_sorts(self):
        rng = random.Random(0)
        keys = [rng.randrange(1000) for _ in range(500)]
        h = OracleHeap()
        for k in keys:
            h.insert(k)
        out = [h.delete_min() for _ in range(len(keys))]
        assert out == sorted(keys)

    def test_decrease_key_and_handles(self):
        h = OracleHeap()
        a = h.insert(10)
        b = h.insert(20)
        h.decrease_key(b, 5)
        assert h.find_min() == 5
        assert h.delete_min() == 5
        assert not b.alive
        with pytest.raises(DeadHandleError):
            h.decrease_key(b, 1)
        with pytest.raises(KeyOrderError):
            h.decrease_key(a, 11)
        assert h.delete_min() == 10
        with pytest.raises(EmptyHeapError):
            h.delete_min()

    def test_delete_and_increase_key(self):
        h = OracleHeap()
        a, b, c = (h.insert(k) for k in (4, 7, 4))
        h.increase_key(a, 9)
        with pytest.raises(KeyOrderError):
            h.increase_key(b, float('nan'))
        h.delete(c)
        assert not c.alive and len(h) == 2 and h.find_min() == 7
        for op in (h.delete, lambda x: h.increase_key(x, 10)):
            with pytest.raises(DeadHandleError):
                op(c)
        h.increase_key(b, 9)  # ties keep a's insertion order
        assert h.delete_min() == 9 and not a.alive and b.alive
        assert [h.delete_min() for _ in range(len(h))] == [9]

    def test_ties_broken_by_insertion_order(self):
        h = OracleHeap()
        first = h.insert(7)
        second = h.insert(7)
        h.delete_min()
        assert not first.alive
        assert second.alive

    @pytest.mark.parametrize('ops', [
        [('insert', 5), ('insert', 7), ('decrease_key', 0, 5),
         ('decrease_key', 1, 7), ('decrease_key', 0, 5),
         ('increase_key', 0, 9)],
        [('insert', 5), ('insert', 6), ('decrease_key', 0, 2),
         ('increase_key', 0, 5), ('decrease_key', 1, 5),
         ('increase_key', 1, 6), ('increase_key', 0, 8)],
        [('insert', 5), ('insert', 4), ('decrease_key', 0, 3),
         ('decrease_key', 0, 1), ('increase_key', 0, 2), ('delete', 0),
         ('insert', 1), ('insert', 2)],
    ], ids=['decrease-to-equal', 'increase-back', 'delete-with-stale'])
    def test_stale_entries(self, ops):
        # key changes and deletes leave stale entries, some with the
        # key of a live entry; find_min and the drain must still follow
        # a sorted model, and heapq must never fall through to comparing
        # two handles (a TypeError)
        h = OracleHeap()
        handles = []
        model = {}
        for name, *args in ops:
            if name == 'insert':
                model[len(handles)] = args[0]
                handles.append(h.insert(args[0]))
                continue
            getattr(h, name)(handles[args[0]], *args[1:])
            if name == 'delete':
                del model[args[0]]
            else:
                model[args[0]] = args[1]
            assert len(h) == len(model)
            assert h.find_min() == min(model.values())
        assert drain(h) == sorted(model.values())


class TestUnorderableKeys:

    @pytest.mark.parametrize('cls', [LPHeap, FHTNGHeap, ExpHeap, OracleHeap])
    def test_decrease_key_to_nan_rejected(self, cls):
        h = cls()
        handles = [h.insert(k) for k in (5, 3, 8, 1, 9)]
        with pytest.raises(KeyOrderError):
            h.decrease_key(handles[2], float('nan'))
        if cls is not OracleHeap:
            assert audit(h).passed
        assert [h.delete_min() for _ in range(5)] == [1, 3, 5, 8, 9]

    def test_lp_increase_key_to_nan_rejected(self):
        h = LPHeap()
        handles = [h.insert(k) for k in (5, 3, 8, 1, 9)]
        with pytest.raises(KeyOrderError):
            h.increase_key(handles[0], float('nan'))
        assert audit(h).passed
        assert [h.delete_min() for _ in range(5)] == [1, 3, 5, 8, 9]

    @pytest.mark.parametrize('cls', [LPHeap, FHTNGHeap, ExpHeap])
    def test_insert_nan_rejected(self, cls):
        h = cls()
        for k in (5, 3, 8):
            h.insert(k)
        meter = h.meter.snapshot()
        with pytest.raises(KeyOrderError):
            h.insert(float('nan'))
        assert len(h) == 3 and h.meter.snapshot() == meter
        for k in (1, 9):
            h.insert(k)
        assert audit(h).passed
        assert drain(h) == [1, 3, 5, 8, 9]

    @pytest.mark.parametrize('cls', [LPHeap, FHTNGHeap])
    def test_unorderable_insert_refused_before_any_change(self, cls):
        # ExpHeap makes no comparison at this insert and accepts the key
        h = cls()
        for k in (5, 3):
            h.insert(k)
        meter = h.meter.snapshot()
        with pytest.raises(TypeError):
            h.insert('a')
        assert len(h) == 2 and h.meter.snapshot() == meter
        assert audit(h).passed
        assert drain(h) == [3, 5]

    def test_lp_build_rejects_nan(self):
        with pytest.raises(KeyOrderError):
            LPHeap.build([5, float('nan'), 1])


class TestForeignHandles:

    @pytest.mark.parametrize('cls, op, args', [
        (LPHeap, 'decrease_key', (0,)), (FHTNGHeap, 'decrease_key', (0,)),
        (ExpHeap, 'decrease_key', (0,)), (LPHeap, 'delete', ()),
        (LPHeap, 'increase_key', (20,))])
    def test_foreign_handle_rejected_before_any_change(self, cls, op, args):
        a = cls()
        b = cls()
        handles = [a.insert(k) for k in (5, 3, 8, 1, 9)]
        for k in (6, 2, 7):
            b.insert(k)
        with pytest.raises(ForeignHandleError):
            getattr(b, op)(handles[2], *args)
        assert audit(a).passed and audit(b).passed
        assert drain(a) == [1, 3, 5, 8, 9]
        assert drain(b) == [2, 6, 7]


class TestDifferentialRun:

    def test_empty_trace_passes(self):
        assert differential_run(Trace(), LPHeap()).ok

    def test_sorted_drain(self):
        ops = [('i', k) for k in [5, 3, 8, 1, 9, 2, 7, 4, 6, 0]]
        ops += [('d',)] * 10
        for heap in (LPHeap(), FHTNGHeap(), ExpHeap()):
            res = differential_run(Trace(ops), heap)
            assert res.ok, res

    def test_error_outcomes_match(self):
        # an in-trace key increase must be rejected identically
        ops = [('i', 5), ('k', 0, 9), ('d',), ('k', 0, 1), ('d',)]
        for heap in (LPHeap(), FHTNGHeap(), ExpHeap()):
            res = differential_run(Trace(ops), heap)
            assert res.ok, res

    def test_divergence_reported_with_op_index(self):
        class LyingHeap(LPHeap):
            def delete_min(self):
                super().delete_min()
                return -1
        ops = [('i', 4), ('i', 2), ('d',)]
        res = differential_run(Trace(ops), LyingHeap())
        assert not res.ok
        assert res.fail_op == 2
        assert 'delete_min' in res.reason

    def test_find_min_divergence_reported_with_op_index(self):
        class LyingHeap(LPHeap):
            def find_min(self):
                return super().find_min() + 1
        ops = [('i', 4), ('i', 2), ('d',)]
        res = differential_run(Trace(ops), LyingHeap())
        assert not res.ok
        assert res.fail_op == 0
        assert 'find_min' in res.reason

    @pytest.mark.parametrize('impl', [LPHeap, FHTNGHeap, ExpHeap])
    @pytest.mark.parametrize('pattern', ['random', 'dijkstra-like',
                                         'sawtooth', 'adversarial-dk'])
    def test_patterns_vs_oracle(self, impl, pattern):
        trace = gen(pattern, 2000, seed=3)
        res = differential_run(trace, impl(), audit_every=64)
        assert res.ok, res
        assert drain(res.heap) == live_keys(trace)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from('iidk'),
                              st.integers(0, 1 << 16)),
                    max_size=150))
    def test_fuzzed_op_sequences(self, raw):
        '''Arbitrary op soups, made valid against a shadow model, must
        replay identically on all three heaps with clean audits.'''
        ops = []
        live = []          # (hid, current key), dead pruned lazily
        shadow = OracleHeap()
        handles = []
        for kind, x in raw:
            if kind == 'd' and shadow.n:
                ops.append(('d',))
                shadow.delete_min()
            elif kind == 'k' and shadow.n:
                live = [(h, hd) for h, hd in live if hd.alive]
                if not live:
                    continue
                hid, hd = live[x % len(live)]
                ops.append(('k', hid, hd.key[0] - (x % 64)))
                shadow.decrease_key(hd, hd.key[0] - (x % 64))
            else:
                ops.append(('i', x))
                handles.append(shadow.insert(x))
                live.append((len(handles) - 1, handles[-1]))
        trace = Trace(ops)
        for impl in (LPHeap, FHTNGHeap, ExpHeap):
            heap = impl()
            res = differential_run(trace, heap, audit_every=25)
            assert res.ok, (impl.__name__, res)
            assert audit(heap).passed

    def test_deterministic_given_trace_and_seed(self):
        trace = gen('random', 500, seed=8)
        outs = []
        for _ in range(2):
            h = LPHeap()
            handles = []
            out = []
            with split_rule('rand', seed=5):
                for op in trace.ops:
                    if op[0] == 'i':
                        handles.append(h.insert(op[1]))
                    elif op[0] == 'd':
                        out.append(h.delete_min())
                    else:
                        h.decrease_key(handles[op[1]], op[2])
            outs.append(out)
        assert outs[0] == outs[1]


class TestAudit:

    def test_fresh_single_element(self):
        for heap in (LPHeap(), FHTNGHeap(), ExpHeap()):
            heap.insert(1)
            assert audit(heap).passed

    def test_lp_fuzz_with_audit_at_every_delete_min(self):
        rng = random.Random(12)
        h = LPHeap()
        handles = []
        for _ in range(1000):
            r = rng.random()
            if not h.n or r < 0.5:
                handles.append(h.insert(rng.randrange(1 << 16)))
            elif r < 0.8:
                h.delete_min()
                assert audit(h).passed
            else:
                node = rng.choice(handles)
                if node.alive:
                    h.decrease_key(node, node.key[0] - 1)

    def test_corrupted_size_counter_detected(self):
        h = make_lp_state([3, 4])
        h.sets[1].size = 5
        report = audit(h)
        assert not report.passed
        assert report.failures[0][0] == 'size'
        assert 'S_2' in report.failures[0][1]

        h2 = make_fhtng_state({4: 5})
        h2.slot_sets[4].size = 7
        report2 = audit(h2)
        assert not report2.passed
        assert report2.failures[0][0] == 'size'

        h3 = make_exp_state([2, 4])
        h3.sets[0].size = 1
        assert not audit(h3).passed

    def test_broken_back_link_detected(self):
        h = make_lp_state([2, 4])
        nodes = list(h.sets[1].iter_nodes())
        nodes[2].prev = nodes[0]
        report = audit(h)
        assert not report.passed
        assert report.failures[0][0] == 'links'
        assert 'S_2' in report.failures[0][1]

    def test_stale_last_detected(self):
        h = make_fhtng_state({4: 5})
        s = h.slot_sets[4]
        s.last = s.last.prev
        report = audit(h)
        assert not report.passed
        assert report.failures[0][0] == 'links'

    def test_order_violation_detected(self):
        h = make_lp_state([2, 2])
        node = next(h.sets[1].iter_nodes())
        node.key = (1, node.key[1])  # now below the first set's keys
        report = audit(h)
        assert not report.passed

    @pytest.mark.parametrize('how', ['dead', 'stale', 'not-min', 'foreign',
                                     'none', 'on-empty'])
    def test_lp_cached_min_checked(self, how):
        # find_min and delete_min trust cached_min, so the audit checks
        # that it is S_1's live minimum and that only an empty heap
        # has none
        h = make_lp_state([3, 4])
        s1 = h.sets[0]
        if how == 'dead':
            # the minimum left the heap but is still cached
            s1.remove(h.cached_min)
            h.cached_min.alive = False
            h.n -= 1
        elif how == 'stale':
            h.cached_min = h.sets[1].first
        elif how == 'not-min':
            h.cached_min = s1.last
        elif how == 'foreign':
            h.cached_min = make_lp_state([3, 4]).cached_min
        elif how == 'none':
            h.cached_min = None
        else:
            h = LPHeap()
            h.cached_min = make_lp_state([1]).cached_min
        report = audit(h)
        assert [check for check, _ in report.failures] == ['cached-min']

    @pytest.mark.parametrize('how', ['dead', 'other-set', 'order', 'below',
                                     'no-slot', 'empty'])
    def test_fhtng_front_cache_checked(self, how):
        # delete_min pops the front cache without comparing, so the
        # audit checks that it holds the smallest live nodes of a set in
        # some slot, largest first
        h = make_fhtng_state({6: 20, 8: 40})
        assert h.delete_min() == 6000
        front = h._front
        assert h._front_set is h.slot_sets[6] and len(front) == 7
        assert audit(h).passed
        if how == 'dead':
            # the cached minimum left the heap but is still cached
            h.slot_sets[6].remove(front[-1])
            front[-1].alive = False
            h.n -= 1
        elif how == 'other-set':
            front[0] = h.slot_sets[8].first
        elif how == 'order':
            front[0], front[1] = front[1], front[0]
        elif how == 'below':
            # 6002 left the cache but lies below its largest key
            del front[-2]
        elif how == 'no-slot':
            h._front_set = make_fhtng_state({6: 20}).slot_sets[6]
        else:
            del front[:]
        report = audit(h)
        assert report.failures
        assert {check for check, _ in report.failures} == {'front'}

    @pytest.mark.parametrize('impl', [LPHeap, FHTNGHeap, ExpHeap])
    def test_raising_comparison_never_silent(self, impl):
        # a comparison that raises inside delete_min may leave the heap
        # broken, but never silently: the audit fails, or the heap
        # drains the live keys, with or without the minimum.  LP puts
        # the minimum back, so its heap always audits clean
        raised = 0
        for seed in range(300):
            rng = random.Random(seed)
            values = rng.sample(range(1 << 20), 300)
            keys, fuse = raising_keys(values)
            h = impl()
            for key in keys:
                h.insert(key)
            for _ in range(50):
                h.delete_min()
            fuse[0] = rng.randrange(1, 60)
            try:
                h.delete_min()
            except Boom:
                raised += 1
            else:
                continue
            fuse[0] = None
            if not audit(h).passed:
                assert impl is not LPHeap, seed
                continue
            live = sorted(values)[50:]
            assert [key.v for key in drain(h)] in (live, live[1:]), seed
        assert raised >= 30

    @pytest.mark.parametrize('op', ['insert', 'decrease_key'])
    def test_fhtng_raising_update_leaves_a_valid_heap(self, op):
        # an insert or decrease_key whose key lands near the front cache,
        # with a comparison raising at each index in turn until the op
        # completes: each time the heap audits clean and drains the live
        # keys as they were, or with the op applied
        raised = 0
        for seed in range(40):
            rng = random.Random(seed)
            values = rng.sample(range(0, 1 << 20, 2), 300)
            live = sorted(values)[20:]
            # an odd value, so distinct, among the smallest live keys
            new = rng.randrange(live[0], live[40]) | 1
            pick = rng.random()
            for at in range(100):
                keys, fuse = raising_keys(values + [new])
                h = FHTNGHeap()
                handles = [h.insert(key) for key in keys[:300]]
                for _ in range(20):
                    h.delete_min()
                if op == 'insert':
                    call = (h.insert, keys[300])
                    applied = sorted(live + [new])
                else:
                    above = [n for n in handles
                             if n.alive and n.key[0].v > new]
                    node = above[int(pick * len(above))]
                    call = (h.decrease_key, node, keys[300])
                    applied = sorted([v for v in live if v != node.key[0].v]
                                     + [new])
                fuse[0] = at
                try:
                    call[0](*call[1:])
                except Boom:
                    raised += 1
                else:
                    break
                fuse[0] = None
                assert audit(h).passed, (seed, at)
                assert [key.v for key in drain(h)] in (live, applied), \
                    (seed, at)
        # measured 71 and 151, the new comparison with the cached maximum
        # among them
        assert raised >= {'insert': 60, 'decrease_key': 120}[op]

    @pytest.mark.parametrize('kind', ('lp', 'fhtng', 'exp'))
    def test_set_above_next_pivot_detected(self, kind):
        # the second pivot lowered to the first: every set still lies
        # at or above its own pivot and below the next set's keys, so
        # only the upper side of the sandwich sees that the keys above
        # the first pivot now belong to the later set
        h = {'lp': lambda: make_lp_state([3, 3, 3]),
             'fhtng': lambda: make_fhtng_state({4: 5, 6: 10}),
             'exp': lambda: make_exp_state([2, 3, 5])}[kind]()
        assert audit(h).passed
        pivots = h._ne_pivs if kind == 'fhtng' else h.pivots
        pivots[1] = pivots[0]
        report = audit(h)
        assert [check for check, _ in report.failures] == ['sandwich']

    @pytest.mark.parametrize('shape', [{5: 21}, {6: 8}, {3: 8}])
    def test_fhtng_band_is_exact(self, shape):
        # full at F_8 = 21, underfull at F_6 = 8, slot 3 full at F_6 = 8
        report = audit(make_fhtng_state(shape))
        assert not report.passed
        assert report.failures[0][0] == 'band'

    def test_audit_is_side_effect_free(self):
        h = make_fhtng_state({4: 5, 6: 13})
        shape_before = [(i, h.slot_sets[i].size) for i in h._ne]
        meter_before = h.meter.snapshot()
        audit(h)
        assert [(i, h.slot_sets[i].size) for i in h._ne] == shape_before
        assert h.meter.snapshot() == meter_before


class TestLemmaCheck:

    def test_lp_insert_rows_within_beta(self):
        h = LPHeap()
        led = attach_ledger(h)
        for k in (5, 2, 8, 1):
            h.insert(k)
        res = lemma_check(led)
        assert res.passed
        assert res.checked == 4

    def test_fhtng_merge_down_row(self):
        h = make_fhtng_state({7: 15, 8: 22, 9: 40})
        led = attach_ledger(h)
        h._restore()  # three-in-a-row resolves by one merge_down
        rows = [r for r in led.rows if r.op == 'merge_down']
        assert len(rows) == 1
        assert rows[0].nominal + rows[0].dphi <= 0
        assert lemma_check(led).passed

    def test_exp_push_chain_row(self):
        h = make_exp_state([5, 7, 20])
        led = attach_ledger(h)
        h.insert(1500)
        res = lemma_check(led)
        assert res.passed
        push = [r for r in led.rows if r.op == 'push'][0]
        assert push.dphi <= -push.b + push.a + 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            lemma_check(PotentialLedger('mystery'))

    def test_exp_pull_primary_budget_overshoots_small_cascades(self):
        # documented defect: a one-level pull releases one unit less
        # than the primary budget demands
        h = make_exp_state([0, 3])
        led = attach_ledger(h)
        h.delete_min()
        res = lemma_check(led)
        assert not res.passed
        row, bound = res.violations[0]
        assert row.op == 'pull' and (row.a, row.b) == (1, 2)
        assert row.dphi == bound + 1  # off by exactly one unit
        assert res.sharp_passed


# Hand-built rows for every branch of the three budgets.  Each entry is
# (op, a, b, nominal, dphi, primary, sharp); a tier is None when it does
# not check the row, else (bound, violated).
BUDGET_TABLE = {
    'lp': [
        ('insert', 0, 0, 0, 4, (4, False), (4, False)),
        ('insert', 0, 0, 0, 5, (4, True), (4, True)),
        ('decrease_key', 0, 0, 0, 5, (4, True), (4, True)),
        # a = |S_1| before, b = sets before: 4 * (5 - 3)
        ('delete_min', 7, 5, 0, 8, (8, False), (8, False)),
        ('delete_min', 7, 5, 0, 9, (8, True), (8, True)),
        ('delete_min', 11, 2, 0, -11, (-12, True), (-12, True)),
        ('delete', 0, 0, 0, 99, None, None),
    ],
    'fhtng': [
        ('insert', 0, 0, 0, 1, (1, False), (1, False)),
        ('insert', 0, 0, 0, 2, (1, True), (1, True)),
        ('decrease_key', 0, 0, 0, 2, (2, False), (2, False)),
        ('decrease_key', 0, 0, 0, 3, (2, True), (2, True)),
        # a = nonempty slots before: bound a + 1
        ('delete_min', 4, 0, 0, 5, (5, False), (5, False)),
        ('delete_min', 4, 0, 0, 6, (5, True), (5, True)),
        # restoring rows: nominal + dphi <= 0 from their threshold on
        ('overflow_down', 3, 0, 1, -1, (-1, False), (-1, False)),
        ('overflow_down', 3, 0, 1, 0, (-1, True), (-1, True)),
        ('overflow_thru', 9, 0, 5, -4, (-5, True), (-5, True)),
        ('underflow_up', 6, 0, 1, 0, (-1, True), (-1, True)),
        ('underflow_thru', 3, 0, 0, 0, (0, False), (0, False)),
        ('split_up', 12, 0, 8, -8, (-8, False), (-8, False)),
        ('split_up', 12, 0, 8, -7, (-8, True), (-8, True)),
        # below the threshold neither tier checks
        ('underflow_up', 5, 0, 1, 5, None, None),
        ('split_up', 10, 0, 2, 9, None, None),
        # merge_down at slot 5 may gain one unit in the sharp tier
        ('merge_down', 5, 0, 1, -1, (-1, False), (0, False)),
        ('merge_down', 5, 0, 1, 0, (-1, True), (0, False)),
        ('merge_down', 5, 0, 1, 1, (-1, True), (0, True)),
        ('merge_down', 6, 0, 1, 0, (-1, True), (-1, True)),
        ('bottom_merge', 4, 0, 1, 3, None, None),
    ],
    'exp': [
        ('insert', 0, 0, 0, 2, (2, False), (2, False)),
        ('insert', 0, 0, 0, 3, (2, True), (2, True)),
        ('decrease_key', 0, 0, 0, 3, (2, True), (2, True)),
        # a = number of sets
        ('delete_min', 4, 0, 0, 4, (4, False), (4, False)),
        ('delete_min', 4, 0, 0, 5, (4, True), (4, True)),
        # push (i, j): -j + i + 3
        ('push', 1, 3, 0, 1, (1, False), (1, False)),
        ('push', 1, 3, 0, 2, (1, True), (1, True)),
        # pull (i, m): -m - 2^(i-1) + 1, sharp -2^i - m + i + 2 for i < 3
        ('pull', 3, 2, 0, -5, (-5, False), (-5, False)),
        ('pull', 3, 2, 0, -4, (-5, True), (-5, True)),
        ('pull', 1, 2, 0, -1, (-2, True), (-1, False)),
        ('pull', 1, 2, 0, 0, (-2, True), (-1, True)),
        ('pull', 2, 1, 0, -1, (-2, True), (-1, False)),
        # swap-only pull: sharp tier only, -m + 1
        ('pull', 0, 3, 0, -2, None, (-2, False)),
        ('pull', 0, 3, 0, -1, None, (-2, True)),
        ('trim', 0, 0, 0, 99, None, None),
    ],
}


class TestBudgetTable:
    '''Every branch of the budgets, on rows built by hand: the counts
    and every reported (row, bound) pair in both tiers.'''

    @pytest.mark.parametrize('kind', sorted(BUDGET_TABLE))
    def test_every_branch(self, kind):
        table = BUDGET_TABLE[kind]
        led = PotentialLedger(kind)
        rows = led.rows = [PotRow(op, a, b, nominal, (0, 0, 0), (dphi, 0, 0))
                           for op, a, b, nominal, dphi, _, _ in table]
        res = lemma_check(led)
        primary = [(row, t[5][0]) for row, t in zip(rows, table)
                   if t[5] is not None and t[5][1]]
        sharp = [(row, t[6][0]) for row, t in zip(rows, table)
                 if t[6] is not None and t[6][1]]
        checked = sum(1 for t in table if t[5] is not None)
        assert res.checked == checked
        assert res.skipped == len(table) - checked
        assert res.violations == primary
        assert res.sharp_violations == sharp

    @pytest.mark.parametrize('before,after,violated', [
        ((0, 5, 0), (0, 3, 1), True),    # up rises, dphi = -1
        ((0, 0, 0), (0, 1, 1), True),    # up rises, dphi = 2
        ((0, 0, 3), (1, 3, 1), False),   # up falls, dphi = 2
        ((0, 0, 3), (1, 4, 1), True),    # up falls, dphi = 3
    ])
    def test_fhtng_decrease_key_up_rise(self, before, after, violated):
        '''An up rise fails the row whatever dphi is; the reported
        bound is 2 either way.'''
        led = PotentialLedger('fhtng')
        row = PotRow('decrease_key', 0, 0, 0, before, after)
        led.rows = [row]
        res = lemma_check(led)
        assert (res.checked, res.skipped) == (1, 0)
        expect = [(row, 2)] if violated else []
        assert res.violations == expect
        assert res.sharp_violations == expect


HEAPS = {'lp': LPHeap, 'fhtng': FHTNGHeap, 'exp': ExpHeap}


class TestLedgerPhi:
    '''The ledger keeps the heap's current potential, so every row's
    ``before`` comes from it instead of a second computation.'''

    @pytest.mark.parametrize('impl', sorted(HEAPS))
    def test_audit_catches_stale_ledger(self, impl):
        h = HEAPS[impl]()
        led = attach_ledger(h)
        for k in range(40):
            h.insert((k * 17) % 40)
        h.delete_min()
        assert audit(h).passed
        led.phi = tuple(c + 1 for c in led.phi)
        report = audit(h)
        assert not report.passed
        assert report.failures[0][0] == 'ledger'

    def test_lp_delete_and_increase_key_keep_phi_current(self):
        rng = random.Random(3)
        h = LPHeap()
        led = attach_ledger(h)
        live = []
        for step in range(600):
            phi = (h.potential_phi(),)
            rows = len(led.rows)
            r = rng.random()
            if not live or r < 0.4:
                live.append(h.insert(rng.randrange(10 ** 6)))
            elif r < 0.55:
                h.delete_min()
                live = [x for x in live if x.alive]
            elif r < 0.8:
                h.delete(live.pop(rng.randrange(len(live))))
            else:
                node = live[rng.randrange(len(live))]
                h.increase_key(node, node.key[0] + rng.randrange(1000))
            if len(led.rows) > rows:
                assert led.rows[rows].before == phi, step
            assert audit(h).passed, step
        assert {r.op for r in led.rows} == {'insert', 'delete_min'}

    @pytest.mark.parametrize('impl,pattern', [
        ('lp', 'sawtooth'), ('exp', 'sawtooth'),
        ('fhtng', 'adversarial-dk')])
    def test_one_potential_per_row(self, impl, pattern, monkeypatch):
        cls = HEAPS[impl]
        name = 'potential_phi' if impl == 'lp' else 'potential'
        pure = getattr(cls, name)
        calls = [0]

        def counted(self):
            calls[0] += 1
            return pure(self)

        monkeypatch.setattr(cls, name, counted)
        trace = gen(pattern, 4000, 0)
        res = run_trace(trace, impl, phi=True)
        assert res.ledger is not None
        expected = len(res.ledger.rows) + 1  # one per row, one at attach
        if impl == 'fhtng':
            # a decrease_key row sums two mutations around a restoration
            expected += sum(1 for op in trace.ops if op[0] == 'k')
        assert calls[0] == expected

    @pytest.mark.parametrize('select', ['det', 'rand'])
    @pytest.mark.parametrize('pattern', PATTERNS)
    @pytest.mark.parametrize('impl', sorted(HEAPS))
    def test_phi_current_after_every_op(self, impl, pattern, select):
        h = HEAPS[impl]()
        led = attach_ledger(h)
        handles = []
        with split_rule(select, seed=5):
            for op in gen(pattern, 600, 1).ops:
                if op[0] == 'i':
                    handles.append(h.insert(op[1]))
                elif op[0] == 'd':
                    h.delete_min()
                else:
                    h.decrease_key(handles[op[1]], op[2])
                assert led.phi == current_phi(h)
