'''Lazy-partition heap behavior, invariants, and amortization budgets.'''

import contextlib
import math
import random

import pytest

from conftest import (Boom, drain, keys_of, lockstep_with_oracle,
                      make_lp_state, raising_keys, randomized_splits,
                      split_rule)
from partheap import (EmptyHeapError, KeyOrderError, LPHeap, attach_ledger,
                      audit, gen, lemma_check, run_trace)


class TestInsert:

    def test_into_empty_heap(self):
        h = LPHeap()
        h.insert(5)
        assert h.n == 1
        assert len(h.sets) == 1
        assert h.find_min() == 5

    def test_lands_by_pivot(self):
        h = make_lp_state([3, 2])  # pivot at 2000
        h.insert(2500)
        assert h.sets[1].size == 3

    def test_key_equal_to_pivot_goes_right(self):
        h = make_lp_state([3, 2])
        h.insert(2000)  # equal to the pivot: half-open interval
        assert h.sets[1].size == 3
        assert h.sets[0].size == 3

    def test_search_comparison_budget(self):
        h = make_lp_state([2] * 16)
        h.insert(123)
        # 15 pivots: ceil(lg 16) = 4 comparisons
        assert h.last_search_comparisons <= 5

    def test_cached_minimum_compared_only_in_s1(self):
        # a key past S_1 is at or above pivots[0], above the minimum
        h = make_lp_state([3, 2])  # pivot at 2000
        before = h.meter.comparisons
        h.insert(2500)
        assert h.meter.comparisons - before == h.last_search_comparisons
        before = h.meter.comparisons
        h.insert(500)
        assert h.meter.comparisons - before == h.last_search_comparisons + 1
        assert h.find_min() == 500 and audit(h).passed


class TestDeleteMin:

    def test_example_partition(self):
        h = LPHeap()
        for k in [5, 1, 3, 9, 7]:
            h.insert(k)
        assert h.delete_min() == 1
        assert [s.size for s in h.sets] == [2, 2]
        assert keys_of(h.sets[0]) == [3, 5]
        assert keys_of(h.sets[1]) == [7, 9]
        assert h.pivots[0][0] == 7

    def test_single_element(self):
        h = LPHeap()
        h.insert(4)
        assert h.delete_min() == 4
        assert h.n == 0
        assert h.sets == []
        with pytest.raises(EmptyHeapError):
            h.delete_min()
        with pytest.raises(EmptyHeapError):
            h.find_min()

    def test_set_count_bound_after_random_mix(self):
        rng = random.Random(2)
        h = LPHeap()
        handles = []
        for _ in range(400):
            r = rng.random()
            if not handles or r < 0.55:
                handles.append(h.insert(rng.randrange(10_000)))
            elif r < 0.8 and h.n:
                h.delete_min()
            else:
                node = rng.choice(handles)
                if node.alive:
                    h.decrease_key(node, node.key[0] - rng.randrange(50))
        if h.n >= 16:
            h.delete_min()
            assert len(h.sets) <= 2 * math.log2(h.n) + 1
        report = audit(h)
        assert report.passed, report

    def test_bound_at_sixteen_elements(self):
        rng = random.Random(7)
        h = LPHeap()
        handles = [h.insert(rng.randrange(1000)) for _ in range(17)]
        for node in rng.sample(handles, 6):
            h.decrease_key(node, node.key[0] - rng.randrange(100))
        h.delete_min()  # n is now 16: at most 2 * lg 16 + 1 = 9 sets
        assert h.n == 16
        assert len(h.sets) <= 9

    def test_drain_is_sorted(self):
        rng = random.Random(5)
        keys = [rng.randrange(1 << 20) for _ in range(300)]
        h = LPHeap()
        for k in keys:
            h.insert(k)
        assert drain(h) == sorted(keys)

    def test_raising_split_leaves_the_heap_without_the_op(self):
        # the split of S_1 raises: the minimum goes back in front, and
        # the ledger's phi follows the sweep that already ran
        values = random.Random(3).sample(range(1000), 200)
        keys, fuse = raising_keys(values)
        h = LPHeap()
        for key in keys:
            h.insert(key)
        attach_ledger(h)
        fuse[0] = 5
        with pytest.raises(Boom):
            h.delete_min()
        fuse[0] = None
        assert audit(h).passed
        assert h.find_min().v == min(values)
        assert [key.v for key in drain(h)] == sorted(values)


class TestForgetPivots:

    def test_merge_middle_pair(self):
        h = make_lp_state([4, 1, 1, 10])
        h._forget_pivots()
        assert [s.size for s in h.sets] == [4, 2, 10]
        assert audit(h).passed

    def test_no_pair_merges(self):
        h = make_lp_state([1, 1, 2, 4, 8])
        h._forget_pivots()
        assert [s.size for s in h.sets] == [1, 1, 2, 4, 8]

    def test_empty_set_removed(self):
        h = make_lp_state([0, 3])
        h._forget_pivots()
        assert [s.size for s in h.sets] == [3]
        assert h.pivots == []

    def test_merged_set_keeps_absorbing(self):
        # after merging, the pass continues with the merged set
        h = make_lp_state([8, 1, 1, 1, 1, 20])
        h._forget_pivots()
        assert [s.size for s in h.sets] == [8, 4, 20]

    def test_inserts_alone_make_a_deep_pair_fire(self):
        # at rest no pair fires; three inserts into S_1 raise the prefix
        # of every later pair, and only the sixth and seventh sets fall
        # below theirs.  After delete_min's split the first pairs still
        # hold, so a sweep that stopped at the first pair past the front
        # that does not fire would miss the deep one.
        h = make_lp_state([2, 10, 10, 10, 15, 18])
        assert audit(h).passed
        for key in (1500, 1501, 1502):
            h.insert(key)
        assert h.delete_min() == 1000
        assert [s.size for s in h.sets] == [2, 2, 10, 10, 10, 33]
        assert audit(h).passed

    def test_no_rule_violation_after(self):
        rng = random.Random(9)
        for _ in range(40):
            sizes = [rng.randrange(0, 12) for _ in range(rng.randrange(1, 10))]
            h = make_lp_state(sizes)
            h._forget_pivots()
            report = audit(h)
            assert report.passed, (sizes, report)


class TestDecreaseKey:

    def test_moves_to_front_set(self):
        h = make_lp_state([3, 3])
        node = next(h.sets[1].iter_nodes())
        h.decrease_key(node, 5)
        assert h.sets[0].size == 4
        assert h.sets[1].size == 2
        assert h.find_min() == 5

    def test_same_interval_reappended(self):
        h = make_lp_state([3, 3])  # second block holds 2000..2002
        node = list(h.sets[1].iter_nodes())[-1]
        old_key = node.key[0]
        h.decrease_key(node, old_key - 1)  # 2001: stays above the pivot
        assert h.sets[1].size == 3
        assert node is list(h.sets[1].iter_nodes())[-1]
        assert node.key == (old_key - 1, node.key[1])

    def test_increase_rejected(self):
        h = LPHeap()
        node = h.insert(10)
        with pytest.raises(KeyOrderError):
            h.decrease_key(node, 11)

    def test_dead_handle_rejected(self):
        from partheap import DeadHandleError
        h = LPHeap()
        node = h.insert(10)
        h.delete_min()
        with pytest.raises(DeadHandleError):
            h.decrease_key(node, 5)


class TestFindMin:

    def test_after_inserts(self):
        h = LPHeap()
        for k in [5, 2, 9]:
            h.insert(k)
        assert h.find_min() == 2

    def test_after_decrease(self):
        h = LPHeap()
        h.insert(5)
        h.insert(2)
        node = h.insert(9)
        h.decrease_key(node, 1)
        assert h.find_min() == 1

    def test_after_delete_min(self):
        h = LPHeap()
        for k in [2, 5, 9]:
            h.insert(k)
        h.delete_min()
        assert h.find_min() == 5


class TestDeleteAndIncrease:

    def test_delete_sole_element(self):
        h = LPHeap()
        node = h.insert(3)
        h.delete(node)
        assert h.n == 0
        assert h.sets == []

    def test_delete_empties_first_set(self):
        h = make_lp_state([1, 3])
        node = next(h.sets[0].iter_nodes())
        h.delete(node)
        assert [s.size for s in h.sets] == [3]
        assert h.pivots == []
        assert h.find_min() == 2000
        assert audit(h).passed

    def test_increase_moves_back(self):
        h = make_lp_state([3, 3])  # pivot 2000
        node = next(h.sets[0].iter_nodes())
        h.increase_key(node, 2500)
        assert h.sets[0].size == 2
        assert h.sets[1].size == 4
        assert audit(h).passed

    def test_increase_rejects_decrease(self):
        h = LPHeap()
        node = h.insert(10)
        with pytest.raises(KeyOrderError):
            h.increase_key(node, 9)

    def test_increase_whose_move_fires_concat_rule(self):
        h = LPHeap()
        h.insert(19)
        h.delete_min()
        node = h.insert(8)
        for k in (18, 1):
            h.insert(k)
        h.delete_min()
        for k in (12, 5, 9):
            h.insert(k)
        h.delete_min()
        h.insert(0)
        h.increase_key(node, 11)
        assert [s.size for s in h.sets] == [3, 2]
        assert audit(h).passed
        assert drain(h) == [0, 9, 11, 12, 18]

    def test_delete_then_operations_stay_consistent(self):
        rng = random.Random(13)
        h = LPHeap()
        handles = [h.insert(rng.randrange(10_000)) for _ in range(200)]
        rng.shuffle(handles)
        for node in handles[:120]:
            h.delete(node)
            assert audit(h).passed
        rest = sorted(n.key[0] for n in handles[120:])
        assert drain(h) == rest


class TestBuild:

    def test_build_empty(self):
        h = LPHeap.build([])
        assert h.n == 0
        assert h.sets == []

    def test_build_small(self):
        h = LPHeap.build([7, 2, 9])
        assert len(h.sets) == 1
        assert h.sets[0].size == 3
        assert h.find_min() == 2

    def test_build_then_drain_sorted(self):
        rng = random.Random(11)
        keys = [rng.randrange(1 << 16) for _ in range(500)]
        h = LPHeap.build(keys)
        assert drain(h) == sorted(keys)


class TestPotential:

    def test_single_set(self):
        h = make_lp_state([7])
        assert h.potential_phi() == 4 * 7

    def test_empty_heap(self):
        assert LPHeap().potential_phi() == 0

    def test_insert_budget_per_op(self):
        h = LPHeap()
        led = attach_ledger(h)
        rng = random.Random(3)
        for _ in range(300):
            h.insert(rng.randrange(1 << 16))
            if rng.random() < 0.3 and h.n:
                h.delete_min()
        res = lemma_check(led)
        assert res.passed, res.violations[:3]

    def test_decrease_budget_and_delete_min_reconciliation(self):
        rng = random.Random(4)
        h = LPHeap()
        led = attach_ledger(h)
        handles = []
        for _ in range(800):
            r = rng.random()
            if not h.n or r < 0.45:
                handles.append(h.insert(rng.randrange(1 << 20)))
            elif r < 0.75:
                h.delete_min()
            else:
                node = rng.choice(handles)
                if node.alive:
                    h.decrease_key(node, node.key[0] - rng.randrange(1 << 8))
        res = lemma_check(led)
        assert res.passed, res.violations[:3]
        kinds = {row.op for row in led.rows}
        assert {'insert', 'delete_min', 'decrease_key'} <= kinds


class TestAmortizedDeleteMinCost:
    '''Actual cost + potential change per delete_min.

    Actual cost is what beta = 4 pays for: elements scanned by the
    minimum scan plus elements fed to the partition(s), plus the sets
    visited by the pivot-forgetting pass.  Two assertions:

      - exact, per operation: actual + dphi <= 5 * sets_before, which
        follows from the larger-median split releasing 4 * ceil(m/2)
        while the scans cost at most 2m - 1;
      - scaling: the worst (actual + dphi) / lg n ratio, calibrated
        once at n = 2^10, does not grow materially as n doubles (the
        ratio converges from below toward its set-count-bound limit,
        so a fixed 1.25 headroom is allowed; an unpaid linear scan
        would blow far past it).
    '''

    def _max_ratio(self, n, seed):
        rng = random.Random(seed)
        keys = rng.sample(range(1 << 28), n)
        h = LPHeap()
        for k in keys:
            h.insert(k)
        worst = 0.0
        while h.n:
            ell = len(h.sets)
            lgn = math.log2(h.n)
            phi0 = h.potential_phi()
            h.delete_min()
            dphi = h.potential_phi() - phi0
            actual = h.last_delete_min_touches + ell
            assert actual + dphi <= 5 * ell
            if lgn >= 1:
                worst = max(worst, (actual + dphi) / lgn)
        return worst

    def test_stable_across_doubling(self):
        c = 1.25 * self._max_ratio(1 << 10, seed=0)
        for exp in (11, 12, 13, 14):
            assert self._max_ratio(1 << exp, seed=exp) <= c, exp


class TestLockstepWithOracle:

    @pytest.mark.parametrize('build', [False, True], ids=['insert', 'build'])
    @pytest.mark.parametrize('selection', ['det', 'rand'])
    @pytest.mark.parametrize('seed', range(5))
    def test_all_five_ops_agree(self, seed, selection, build):
        with split_rule(selection, seed):
            assert lockstep_with_oracle(seed, build) is None


class TestRandomizedSelection:
    '''LPHeap with seeded quickselect finding the larger median.'''

    def test_drain_sorted_and_audited(self):
        rng = random.Random(8)
        keys = [rng.randrange(1 << 20) for _ in range(400)]
        h = LPHeap()
        with split_rule('rand', seed=17):
            for k in keys:
                h.insert(k)
            out = []
            while h.n:
                out.append(h.delete_min())
                assert audit(h).passed
        assert out == sorted(keys)

    def test_split_leaves_both_sides_nonempty(self):
        h = LPHeap()
        with split_rule('rand', seed=3):
            for k in range(64):
                h.insert(k)
            h.delete_min()
        assert len(h.sets) == 2
        assert h.sets[0].size >= 1
        assert h.sets[1].size >= 1

    def test_lockstep_with_det(self):
        # both rules split at the larger median, so the set layout and
        # the moves and links stay those of det after every op
        for pattern in ('dijkstra-like', 'sawtooth'):
            heaps = [LPHeap() for _ in range(3)]
            rngs = [None, random.Random(5), random.Random(6)]
            handles = [[] for _ in heaps]
            for i, op in enumerate(gen(pattern, 1500, seed=5).ops):
                for h, rng, hs in zip(heaps, rngs, handles):
                    with (randomized_splits(rng) if rng
                          else contextlib.nullcontext()):
                        if op[0] == 'i':
                            hs.append(h.insert(op[1]))
                        elif op[0] == 'd':
                            h.delete_min()
                        else:
                            h.decrease_key(hs[op[1]], op[2])
                shapes = {(tuple(s.size for s in h.sets), h.meter.node_moves,
                           h.meter.list_links) for h in heaps}
                assert len(shapes) == 1, (pattern, i)

    @pytest.mark.parametrize('pattern', ['random', 'dijkstra-like',
                                         'sawtooth', 'adversarial-dk'])
    def test_budgets_hold(self, pattern):
        with split_rule('rand'):
            res = run_trace(gen(pattern, 4000, seed=0), impl='lp',
                            oracle=True, audit_every=1, phi=True)
        assert res.ok, res
        assert res.lemma.passed, res.lemma.violations[:3]
        assert res.lemma.sharp_passed, res.lemma.sharp_violations[:3]
