'''Exponential-cap heap: push/pull mechanics and potentials.'''

import random

import pytest

from conftest import (Boom, drain, keys_of, make_exp_state, raising_keys,
                      split_rule)
from partheap import (EmptyHeapError, ExpHeap, KeyOrderError,
                      attach_ledger, audit, lemma_check)


class TestInsert:

    def test_sixth_insert_triggers_push(self):
        h = ExpHeap()
        led = attach_ledger(h)
        for k in [10, 40, 20, 50, 30]:
            h.insert(k)
        assert len(h.sets) == 1 and h.sets[0].size == 5
        h.insert(60)  # S_1 reaches 3 * 2^1 = 6
        assert len(h.sets) == 2
        assert h.sets[0].size == 0
        assert h.sets[1].size == 6
        assert h.pivots[0][0] == 10  # minimum of the pushed set
        assert [r.op for r in led.rows if r.op == 'push'] == ['push']
        assert audit(h).passed

    def test_insert_below_pivot_goes_front(self):
        h = ExpHeap()
        for k in range(6):
            h.insert(k * 10 + 10)
        h.insert(5)
        assert h.sets[0].size == 1
        assert audit(h).passed

    def test_no_push_below_cap(self):
        h = make_exp_state([5])
        led = attach_ledger(h)
        h.insert(1500)  # size 6 triggers; 5 -> 6 exactly triggers
        assert len(h.sets) == 2
        h2 = make_exp_state([4])
        led2 = attach_ledger(h2)
        h2.insert(1500)  # 4 -> 5 < 6: no push
        assert len(h2.sets) == 1
        assert [r.op for r in led2.rows] == ['insert']


class TestPush:

    def test_absorb_when_target_small(self):
        # arriving 6 elements meet |S_2| = 3 < 2^2: concatenated
        h = make_exp_state([5, 3])
        h.insert(1500)  # fills S_1 to 6, pushes into S_2
        assert h.sets[0].size == 0
        assert h.sets[1].size == 9
        assert h.pivots[0][0] == 1000  # lowered to the pushed minimum
        assert audit(h).passed

    def test_displace_when_target_large(self):
        # |S_2| = 7 >= 2^2: the arriving set takes its place and the
        # old contents push on to S_3
        h = make_exp_state([5, 7])
        led = attach_ledger(h)
        h.insert(1500)
        assert h.sets[0].size == 0
        assert h.sets[1].size == 6
        assert h.sets[2].size == 7
        assert h.pivots[0][0] == 1000
        assert h.pivots[1][0] == 2000
        push_rows = [r for r in led.rows if r.op == 'push']
        assert len(push_rows) == 1
        assert (push_rows[0].a, push_rows[0].b) == (1, 3)
        assert audit(h).passed

    def test_push_reaching_new_level_increments(self):
        h = make_exp_state([5, 8])
        h.insert(1500)
        assert len(h.sets) == 3  # created S_3
        assert audit(h).passed

    def test_raising_comparison_keeps_every_key(self):
        # a comparison that raises inside a push leaves every set and
        # pivot where it was: the full set stays (the audit says
        # size-bound) and the heap drains every key it took in, the
        # raising insert's own key included, since it went in first
        in_push = 0
        for seed in range(300):
            rng = random.Random(seed)
            values = rng.sample(range(1 << 20), 400)
            keys, fuse = raising_keys(values)
            h = ExpHeap()
            for key in keys[:300]:
                h.insert(key)
            fuse[0] = rng.randrange(1, 40)
            taken = 300
            with pytest.raises(Boom):
                for key in keys[300:]:
                    h.insert(key)
                    taken += 1
            fuse[0] = None
            if len(h) > taken:  # the raise came after the append
                in_push += 1
                taken += 1
                assert [c for c, _ in audit(h).failures] == ['size-bound']
            else:
                assert audit(h).passed
            assert [k.v for k in drain(h)] == sorted(values[:taken]), seed
        assert in_push >= 5


class TestDeleteMin:

    def test_scan_first_set(self):
        h = ExpHeap()
        for k in [4, 2, 7]:
            h.insert(k)
        assert h.delete_min() == 2
        assert h.n == 2

    def test_pull_from_second_set(self):
        h = make_exp_state([0, 4])
        nodes = list(h.sets[1].iter_nodes())
        for node, k in zip(nodes, [4, 7, 2, 9]):
            node.key = (k, node.key[1])
        h.pivots[0] = (2, -1)
        assert h.delete_min() == 2
        assert keys_of(h.sets[1]) == [4, 7, 9]
        assert h.pivots[0][0] == 4
        assert audit(h).passed

    def test_empty_heap_raises(self):
        with pytest.raises(EmptyHeapError):
            ExpHeap().delete_min()

    def test_level_trim_when_count_drops(self):
        h = ExpHeap()
        for k in range(6):
            h.insert(k)  # creates S_2
        assert len(h.sets) == 2
        for _ in range(5):
            h.delete_min()
            assert audit(h).passed, h.n
        # n = 1: 2^(l-1) <= 1 forces l = 1
        assert len(h.sets) == 1

    def test_drain_sorted(self):
        rng = random.Random(6)
        keys = [rng.randrange(1 << 24) for _ in range(3000)]
        h = ExpHeap()
        for k in keys:
            h.insert(k)
        assert drain(h) == sorted(keys)


class TestPull:

    def test_swap_single_element(self):
        h = make_exp_state([0, 1])
        h._pull(1)
        assert h.sets[0].size == 1
        assert h.sets[1].size == 0
        from partheap.exp import TOP
        assert h.pivots[0] is TOP  # raised past the moved element

    def test_recursive_selection_levels(self):
        # S_1, S_2 empty; S_3 holds five elements: level 2 selects its
        # two smallest, level 1 selects one of those
        h = make_exp_state([0, 0, 5])
        nodes = list(h.sets[2].iter_nodes())
        for node, k in zip(nodes, [10, 11, 12, 13, 14]):
            node.key = (k, node.key[1])
        h.pivots[1] = (10, -1)
        assert h.delete_min() == 10
        assert keys_of(h.sets[1]) == [11]
        assert keys_of(h.sets[2]) == [12, 13, 14]
        assert h.pivots[1][0] == 12
        assert h.pivots[0][0] == 11
        assert audit(h).passed

    def test_swap_branch_raises_pivot(self):
        h = make_exp_state([0, 1, 0, 9])
        h._pull(1)
        assert h.sets[0].size == 1
        report = audit(h)
        assert report.passed, report


class TestDecreaseKey:

    def test_move_to_front(self):
        h = make_exp_state([2, 4, 9])
        node = next(h.sets[2].iter_nodes())
        h.decrease_key(node, 5)
        assert h.sets[0].size == 3
        assert h.sets[2].size == 8
        assert audit(h).passed

    def test_same_interval(self):
        h = make_exp_state([2, 4])
        node = list(h.sets[1].iter_nodes())[-1]
        h.decrease_key(node, node.key[0] - 1)
        assert h.sets[1].size == 4
        assert audit(h).passed

    def test_append_reaching_cap_pushes(self):
        h = make_exp_state([2, 11, 20])
        led = attach_ledger(h)
        node = next(h.sets[2].iter_nodes())
        h.decrease_key(node, 2500)  # S_2 reaches 12 = 3 * 2^2
        assert [r.op for r in led.rows if r.op == 'push'] == ['push']
        assert audit(h).passed

    def test_key_increase_rejected(self):
        h = ExpHeap()
        node = h.insert(1)
        with pytest.raises(KeyOrderError):
            h.decrease_key(node, 2)


class TestPotential:

    def test_all_empty_levels(self):
        h = make_exp_state([0, 0, 0])
        # pull_i = 2^(i-1) per empty prefix level: total 2^3 - 1
        assert h.potential() == (0, 0, 7)

    def test_single_set_of_five(self):
        h = make_exp_state([5])
        assert h.potential() == (0, 2, 0)

    def test_second_set_eleven(self):
        h = make_exp_state([0, 11])
        ins, push, pull = h.potential()
        assert ins == 1    # 11 - 10
        assert push == 2   # floor(11 / 4)
        assert pull == 1   # level 1 gap only

    def test_budgets_on_random_mix(self):
        rng = random.Random(9)
        h = ExpHeap()
        led = attach_ledger(h)
        handles = []
        for _ in range(4000):
            r = rng.random()
            if not h.n or r < 0.45:
                handles.append(h.insert(rng.randrange(1 << 24)))
            elif r < 0.7:
                h.delete_min()
            else:
                node = rng.choice(handles)
                if node.alive:
                    h.decrease_key(node, node.key[0] - rng.randrange(1 << 14))
        res = lemma_check(led)
        # the sharp budgets hold everywhere; the primary pull budget
        # overshoots for shallow cascades (documented defect)
        assert res.sharp_passed, res.sharp_violations[:3]
        for row, _ in res.violations:
            assert row.op == 'pull' and row.a in (1, 2), row

    def test_push_budget_rows(self):
        h = make_exp_state([5, 7, 20])
        led = attach_ledger(h)
        h.insert(1500)  # push chain through level 2 into level 3
        rows = [r for r in led.rows if r.op == 'push']
        assert len(rows) == 1
        row = rows[0]
        assert row.dphi <= -row.b + row.a + 3


class TestAuditsThroughMixes:

    def test_random_mix_with_audits(self):
        rng = random.Random(10)
        h = ExpHeap()
        handles = []
        for step in range(1500):
            r = rng.random()
            if not h.n or r < 0.5:
                handles.append(h.insert(rng.randrange(1 << 20)))
            elif r < 0.75:
                h.delete_min()
            else:
                node = rng.choice(handles)
                if node.alive:
                    h.decrease_key(node, node.key[0] - rng.randrange(1 << 10))
            if step % 16 == 0:
                report = audit(h)
                assert report.passed, (step, report)

    def test_randomized_selection_mode(self):
        rng = random.Random(11)
        keys = [rng.randrange(1 << 20) for _ in range(500)]
        h = ExpHeap()
        with split_rule('rand', seed=23):
            for k in keys:
                h.insert(k)
            assert drain(h) == sorted(keys)
